#pragma once

// splicer_lint command-line driver, separated from main() so the argument
// parsing, exit codes and output formats are testable in-process.

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

namespace splicer::lint {

/// Exit codes — part of the CLI contract, pinned by tests and relied on by
/// tools/ci.sh and the CI workflow:
///   0  clean tree, or findings reported without --error-on-findings, or a
///      pure informational invocation (--help, --list-rules with no paths)
///   1  findings present and --error-on-findings was given
///   2  usage error (unknown option, no paths) or IO error (missing root,
///      unreadable file)
inline constexpr int kExitClean = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitUsage = 2;

/// Runs the CLI with paths in `args` relative to `cwd` (see load_tree for
/// how they are scoped). `args` excludes argv[0]. Findings/reports go to
/// `out`, diagnostics and usage to `err`. Returns the process exit code.
[[nodiscard]] int run_cli(const std::filesystem::path& cwd,
                          const std::vector<std::string>& args,
                          std::ostream& out, std::ostream& err);

}  // namespace splicer::lint
