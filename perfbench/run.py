#!/usr/bin/env python3
"""Build and run mintcb's host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload gw-session --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark driver from source into
.bench_build/perfbench (CMake; incremental after the first run), primes
the on-disk RSA key cache there untimed, then runs one workload. The
driver's stdout is passed through: its last line is the JSON result.
Every file the run reads or writes stays under .bench_build/. Any extra
arguments (--inject-unknown-pal, --trace-out FILE) go to the benchmark program.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

WORKLOADS = ("gw-session", "svc-quoted")
BUILD_TIMEOUT_S = 840
PRIME_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    """Configure once, then build incrementally; output to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))


def fixed_address_layout():
    """Turn off address-space randomisation for the children we spawn
    (personality is inherited), so code and heap layout, and with them
    cache aliasing, are the same on every run."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("run from the repository root: %s not found" % needed)
    build_dir = os.path.join(".bench_build", "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries and the key cache stay in the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    build(build_dir, env)
    fixed_address_layout()

    common = ["--workload", args.workload]
    prime = subprocess.run([binary, "--prime"] + common, env=env,
                           stdout=subprocess.DEVNULL,
                           timeout=PRIME_TIMEOUT_S)
    if prime.returncode != 0:
        fail("key-cache priming failed for " + args.workload)

    if "--trace-out" not in extra:
        extra += ["--trace-out",
                  os.path.join(build_dir, "trace-%s.json" % args.workload)]
    run = subprocess.run(
        [binary, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace] + common + extra,
        env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
