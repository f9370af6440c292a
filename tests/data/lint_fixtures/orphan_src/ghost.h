// orphan-src fixture (src/lib/ghost.h): only a commented-out include and a
// string literal name it, and neither is an include.
#pragma once

int ghost();
