#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the library under src/ plus
the harness in this directory) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark binary on one thread. The
binary's last stdout line is the JSON result. With --trace 1 the traced
spans are written to <build dir>/spans-<workload>.csv.

Exits nonzero without a result if the sources are missing, the build fails
or the benchmark finds an incorrect output.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when run inside a clone, else a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr, env=env,
                            timeout=BUILD_TIMEOUT_S, check=False)
    if result.returncode != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "routing" / "experiment.h").exists():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = build()

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--source-id", source_id()]
    if args.trace:
        command += ["--spans", str(build_dir / f"spans-{args.workload}.csv")]
    sys.stdout.flush()
    result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
