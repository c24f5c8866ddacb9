#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perf/risotto_perf.exe with dune (shared cache off, so the build
writes only under _build/), then runs it with these arguments and
--out perf/out.  The executable's last line of standard output is the
result; build output goes to standard error.  Exits with the build's
status if the build fails, otherwise with the executable's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perf/risotto_perf.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "perf", "risotto_perf.exe")
    out = os.path.join(ROOT, "perf", "out")
    sys.exit(subprocess.run([exe, "--out", out] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
