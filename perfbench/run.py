#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classic-polybench --seed 1 --seconds 25 --trace 0

The benchmark is built with cargo (release, offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset.  Its standard
output passes through unchanged; the last line is the JSON result.  Build
output goes to standard error.  The exit code is the benchmark's own, or 2
when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The library crates the benchmark builds against.
LIBRARY = os.path.join("crates", "engine", "Cargo.toml")
# A run may take at most this long before it is stopped.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(MANIFEST):
        fail(f"no {MANIFEST}: run from the root of a checkout")
    if not os.path.isfile(LIBRARY):
        fail(f"no {LIBRARY}: the checkout holds no library to benchmark")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"cargo built no {binary}")
    return binary


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    binary = build()
    # A terminated run.py stops its benchmark too (via the finally below).
    signal.signal(signal.SIGTERM, stop)
    child = subprocess.Popen([binary, *sys.argv[1:]])
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
