#!/usr/bin/env python3
"""Build and run the TEE-Perf benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_mixed --seed 1 --seconds 10 --trace 0

Builds `teeperfd` from the repository's workspace and the `perfbench`
package (its own workspace, next to this file), both in release mode and
offline, into $CARGO_TARGET_DIR (default `.bench_build`). Then runs the
benchmark binary with the given arguments; its last line of standard
output is the JSON result. Build output goes to standard error. Exits
non-zero when a build fails, when the benchmark reports a correctness
failure, or when it does not finish in time.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def source_digest(root):
    """Content hash of the profiler's sources (the checkout may not be a
    git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for path in sorted(root.joinpath("crates").rglob("*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:12]


def main():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "Cargo.toml"),
           "-p", "teeperf-daemon", "--bin", "teeperfd"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")], env)
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--teeperfd", str(target / "release" / "teeperfd"),
           "--rev", source_digest(root),
           "--run-dir", str(root / ".bench_run")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
