// orphan-src fixture (src/lib/orphan.cpp): the own .cpp of orphan.h, which
// does not count as a consumer, and a same-directory include of sibling.h.
#include "lib/orphan.h"
#include "sibling.h"

int orphan() { return sibling(); }
