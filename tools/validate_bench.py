#!/usr/bin/env python3
"""Validate the witness report written by `litmus_run --report DIR`.

    validate_bench.py witness REPORT_DIR

Checks every witness-*.json artifact (envelope, keys, a non-empty
target execution and violated axioms), that the paper's four §3
counterexamples each have a witness, and that report.html carries the
highlighted witness graphs and the axiom coverage matrix.

Exit 0 when every check holds, 1 with a diagnostic otherwise.
"""

import glob
import json
import os
import sys


def fail(msg):
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check_envelope(j, path):
    """Every witness artifact opens with the same self-describing fields."""
    if j.get("schema_version") != 1:
        fail(f"{path}: schema_version {j.get('schema_version')!r} != 1")
    if j.get("section") != "witness":
        fail(f"{path}: section {j.get('section')!r}, expected 'witness'")


def cmd_witness(report_dir):
    files = sorted(glob.glob(os.path.join(report_dir, "witness-*.json")))
    if not files:
        fail(f"{report_dir}: no witness artifacts written")
    seen = {}
    for f in files:
        j = load(f)
        check_envelope(j, f)
        for k in ("scheme", "program", "behaviour", "target", "violations"):
            if k not in j:
                fail(f"{f}: missing key {k}")
        if not j["target"]["events"]:
            fail(f"{f}: empty target execution")
        if not j["violations"]:
            fail(f"{f}: no violated axiom")
        for v in j["violations"]:
            if not v["axiom"] or not v["cycle"]:
                fail(f"{f}: malformed violation {v}")
        seen.setdefault(j["program"], set()).add(j["scheme"])
    # The paper's four §3 counterexamples must each have a witness.
    for prog in ("MPQ", "SBQ", "SBAL", "FMR"):
        if prog not in seen:
            fail(f"no witness for {prog} (have {sorted(seen)})")
    html_path = os.path.join(report_dir, "report.html")
    try:
        html = open(html_path).read()
    except OSError as e:
        fail(f"cannot read {html_path}: {e}")
    if "<svg" not in html or "crimson" not in html:
        fail(f"{html_path}: no highlighted witness graphs")
    if "Axiom coverage" not in html:
        fail(f"{html_path}: missing coverage matrix")
    print(f"witness OK: {len(files)} witnesses over {sorted(seen)} programs")


def main(argv):
    if len(argv) != 3 or argv[1] != "witness":
        print(__doc__, file=sys.stderr)
        return 2
    cmd_witness(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
