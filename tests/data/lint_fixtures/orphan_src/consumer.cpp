// orphan-src fixture (tools/consumer.cpp): a consumer of used.h.
#include "lib/used.h"
// #include "lib/ghost.h"

const char* kGhost = "#include \"lib/ghost.h\"";

int main() { return used(); }
