// orphan-src fixture (src/lib/sibling.h): included by a neighbour in its own
// directory as "sibling.h", which resolves beside the including file.
#pragma once

int sibling();
