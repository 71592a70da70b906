#!/usr/bin/env python3
"""Build and run the bsyn benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which builds libbsyn
from src/) as a Release build under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Build output
goes to stderr, so the benchmark's report is all that reaches stdout and
its last line is the JSON result. --self-test builds and runs the
benchmark's own unit tests instead.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(target):
    """Configure (once) and build @target; exit 1 on any failure."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            sys.exit("perfbench: cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, target)


def source_digest():
    """SHA-256 over the library sources (path and bytes, sorted)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_head():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_tests")
        os.execv(binary, [binary])
    binary = build("bsyn_perfbench")
    args = [binary] + argv + [
        "--out-dir", os.path.join(build_root(), "perfbench-out"),
        "--digests", os.path.join(HERE, "digests.json"),
        "--git-head", git_head(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    # Replace this process: the benchmark is the only process left
    # running, and its exit code is the run's.
    os.execv(binary, args)


if __name__ == "__main__":
    main(sys.argv[1:])
