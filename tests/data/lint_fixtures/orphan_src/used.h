// orphan-src fixture (src/lib/used.h): a tool includes it, so it is not an
// orphan. Pinned by LintOrphanSrc.*.
#pragma once

int used();
