// orphan-src fixture (src/lib/orphan.h): only its own .cpp and a test include
// it, so it is an orphan; the finding sits on the first code line.
#pragma once

int orphan();
