#!/usr/bin/env python3
"""Build and run the levnet benchmark.

    python3 perfbench/run.py --workload erew-permutation --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is a CMake project of its own
(perfbench/CMakeLists.txt) that builds the repository's library and
levnet_serve from source in Release; the build tree lives under
$CARGO_TARGET_DIR (default .bench_build)/perfbench. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. With --trace 1 the run's spans are written as a Chrome trace
to <build>/spans/<workload>-seed<seed>.json.

The exit code is the benchmark's: 0 when every check passed, 1 when one
failed, 2 on bad arguments or a failed build or self-test.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir() -> str:
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(directory: str) -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "levbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(directory, "levbench")


def option(args: list, name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args[:-1] else default


def main() -> int:
    args = sys.argv[1:]
    directory = build_dir()
    try:
        binary = build(directory)
    except SystemExit as failure:
        print(failure, file=sys.stderr)
        return 2
    test = subprocess.run([binary, "--self-test"], stdout=sys.stderr)
    if test.returncode != 0 or args == ["--self-test"]:
        return 0 if test.returncode == 0 else 2
    if option(args, "--trace", "0") == "1":
        spans = os.path.join(directory, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload", "run"),
                                   option(args, "--seed", "0"))
        args = args + ["--spans-out", os.path.join(spans, name)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
