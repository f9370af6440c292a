// orphan-src fixture (src/lib/kept.h): an orphan whose reasoned allow on the
// comment line above #pragma once suppresses the finding.
// SPLICER_LINT_ALLOW(orphan-src): fixture for a header kept for out-of-tree
// users that no in-tree consumer includes.
#pragma once

int kept();
