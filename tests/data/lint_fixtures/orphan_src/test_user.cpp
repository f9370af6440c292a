// orphan-src fixture (tests/orphan_test.cpp): a test's include does not keep
// a src/ header alive.
#include "lib/ghost.h"
#include "lib/orphan.h"

int probe() { return orphan() + ghost(); }
