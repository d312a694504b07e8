#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 jbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 jbench/run.py repro --claim <tm kind> --intervening <n>
    python3 jbench/run.py serve-explore [--cross-shard-pct P] [--zipf-theta T]
                                        [--seconds S] [--seed N]

Run from the repository root.  The build (CMake, Release) goes to
$CARGO_TARGET_DIR/jbench, default .bench_build/jbench; build output goes
to stderr so the program's last stdout line stays the JSON result.  Exits
nonzero without a result when the library sources are missing or the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(bdir):
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    base = build_dir()
    bdir = os.path.join(base, "jbench")
    try:
        build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if args[:1] not in (["repro"], ["serve-explore"]):
        args += ["--trace-dir", os.path.join(base, "traces")]
    return subprocess.run([os.path.join(bdir, "jbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
