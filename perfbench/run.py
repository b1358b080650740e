#!/usr/bin/env python3
"""Build the benchmark from source with dune and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload relayout|sweep|walk --seed N \
        --seconds S --trace 0|1

The OCaml benchmark (perfbench/bench.ml) prints a system-information header,
progress lines starting with '#', and one JSON result object as its last
line.  Build output goes to standard error.  Traced runs also write their
per-layer table and spans to perfbench/out/.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run_child(argv, **kwargs):
    """Run a child process to completion; stop it if we are stopped."""
    child = subprocess.Popen(argv, **kwargs)

    def stop(signum, _frame):
        child.terminate()
        raise SystemExit(128 + signum)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        signal.signal(signal.SIGTERM, old)


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: %s is missing; run from a checkout of the repository"
                  % needed, file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_child(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                     cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 1
    sys.stdout.flush()
    return run_child([EXE] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
