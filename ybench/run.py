#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

    python3 ybench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds bin/youtopia_server.exe and
ybench/bench.exe with dune (build output stays in _build/, the dune cache
is off so nothing is written outside the checkout), then hands the
arguments to bench.exe, whose last stdout line is the JSON result.
Exits non-zero without a result if the build is impossible.
"""

import os
import signal
import subprocess
import sys

TARGETS = ["./bin/youtopia_server.exe", "./ybench/bench.exe"]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("run.py: no dune-project here; run from the repository root\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    sys.stdout.flush()
    bench = os.path.join(root, "_build", "default", "ybench", "bench.exe")
    child = subprocess.Popen([bench] + sys.argv[1:], env=env)

    # pass a termination on, so the bench stops its server before exiting
    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
