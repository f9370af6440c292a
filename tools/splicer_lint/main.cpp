// splicer_lint CLI — the repo-contract static-analysis gate.
//
//   splicer_lint [--error-on-findings] [--format text|json|sarif]
//                [--dump-callgraph] [--list-rules] <path>...
//
// Paths are files or directories relative to the current working directory;
// rules are scoped by each file's path from the repository root, so
// `splicer_lint ../src` from build/ reports what `splicer_lint src` reports
// from the root (CI: `splicer_lint --error-on-findings src tools bench
// examples` from the root).
//
// Exit status (pinned by tests/lint_test.cpp, relied on by tools/ci.sh):
//   0  clean tree, or findings reported without --error-on-findings, or a
//      pure informational invocation (--help, --list-rules with no paths)
//   1  findings present and --error-on-findings was given
//   2  usage error (unknown option/format, no paths) or IO error (missing
//      root, unreadable file)

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "splicer_lint/cli.h"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return splicer::lint::run_cli(std::filesystem::current_path(), args,
                                std::cout, std::cerr);
}
