#!/usr/bin/env python3
"""Builds the fedbench binary from source and runs one benchmark workload.

Usage, from the repository root:

    python3 fedbench/run.py --workload sync-amazon-m8 --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the library and the benchmark into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit status is the benchmark's: non-zero when
the build fails or a correctness check does.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fedbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fedbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target_dir, "fedbench")
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"fedbench build failed: {error}", file=sys.stderr)
        return 2
    # Socket files go under the build directory by a relative path, which
    # keeps them short enough for sun_path wherever the checkout lives.
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--socket_dir={os.path.relpath(build_dir)}"]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
