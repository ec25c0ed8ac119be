#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the ecomp libraries from src/ plus the benchmark binary)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. A --trace 1 run
also writes its spans as Chrome trace-event JSON (open it in Perfetto)
next to the binary unless --trace-out is given.

Exits non-zero without a result when the build fails, for example when
src/ is missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def option(args, name):
    """Value following `name` in args, or None."""
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    args = list(argv)
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        args += ["--trace-out", os.path.join(
            build_dir, "trace-%s.json" % option(args, "--workload"))]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
