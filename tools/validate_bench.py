#!/usr/bin/env python3
"""Validate the BENCH_*.json artifacts and related outputs.

One subcommand per artifact family; each loads the JSON, checks the
common envelope (schema_version / section / git_rev) and enforces the
section's acceptance gates.  CI calls these instead of inline heredocs
so the gates are versioned, testable and shared between jobs.

    validate_bench.py envelope FILE...          # envelope only
    validate_bench.py refinement BENCH_refinement.json
    validate_bench.py dispatch BENCH_dispatch.json
    validate_bench.py obs BENCH_obs.json obs_trace.json
    validate_bench.py witness REPORT_DIR
    validate_bench.py chaos BENCH_chaos.json
    validate_bench.py generator BENCH_generator.json

Exit 0 when every gate holds, 1 with a diagnostic otherwise.
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


def check_envelope(j, path, section=None, git_rev=True):
    """Every artifact opens with the same self-describing fields.
    Witness artifacts (one per counterexample, written by the report
    renderer rather than the bench harness) carry no git_rev."""
    if j.get("schema_version") != 1:
        fail(f"{path}: schema_version {j.get('schema_version')!r} != 1")
    if not isinstance(j.get("section"), str) or not j["section"]:
        fail(f"{path}: missing/empty section")
    if section is not None and j["section"] != section:
        fail(f"{path}: section {j['section']!r}, expected {section!r}")
    if git_rev and (not isinstance(j.get("git_rev"), str) or not j["git_rev"]):
        fail(f"{path}: missing/empty git_rev")


def cmd_envelope(paths):
    if not paths:
        fail("envelope: no files given")
    for p in paths:
        check_envelope(load(p), p)
    print(f"envelope OK: {len(paths)} artifact(s)")


def cmd_refinement(path):
    j = load(path)
    check_envelope(j, path, "refinement")
    if not j["verdicts_identical"]:
        fail(f"{path}: parallel verdicts diverge from sequential")
    if j["speedup"] < 1.0:
        fail(
            f"{path}: planned sweep slower than per-task baseline "
            f"(speedup {j['speedup']:.3f} < 1.0; "
            f"sequential {j['sequential_s']:.3f}s, "
            f"parallel {j['parallel_s']:.3f}s)"
        )
    if j["jobs"] < 2:
        fail(f"{path}: bench ran with jobs={j['jobs']}, need >= 2")
    chunks = j.get("chunks", [])
    if not chunks:
        fail(f"{path}: no per-chunk timings recorded")
    covered = sum(c["len"] for c in chunks)
    if covered != j["tasks"] and covered != j.get("cells", j["tasks"]):
        # The planner groups cells by program, so chunk lengths cover
        # the grouped job list, which is never larger than the tasks.
        if covered > j["tasks"]:
            fail(f"{path}: chunk lengths cover {covered} > {j['tasks']} tasks")
    print(
        f"refinement OK: speedup {j['speedup']:.2f}x over {j['tasks']} tasks "
        f"({len(chunks)} chunk(s), {j['domains_used']} domain(s), "
        f"{j['violations']} expected violations)"
    )


# Upper bounds on BENCH_dispatch.json's minor_words_per_block, per pass.
MAX_WORDS_PER_BLOCK = {"unchained": 140, "chained": 140}


def cmd_dispatch(path):
    j = load(path)
    check_envelope(j, path, "dispatch")
    if not j["results_identical"]:
        fail(f"{path}: chained/unchained/interp guest results diverge")
    ch = j["chained"]
    if ch["chain_hits"] == 0:
        fail(f"{path}: chaining did not engage")
    # Chaining runs the same blocks in the same order: guest cycles and
    # the dispatch count must match the unchained pass exactly.
    if ch["cycles"] != j["unchained"]["cycles"]:
        fail(f"{path}: chaining changed guest cycles")
    if ch["dispatches"] != j["unchained"]["dispatches"]:
        fail(f"{path}: chaining changed the dispatch count")
    if ch["chain_hit_rate"] < 0.95:
        fail(
            f"{path}: chain-hit rate {ch['chain_hit_rate']:.4f} "
            f"dropped below 0.95"
        )
    # Minor words per guest block are deterministic, so the bounds need
    # no noise band.
    for name, bound in MAX_WORDS_PER_BLOCK.items():
        wpb = j[name]["minor_words_per_block"]
        if wpb > bound:
            fail(
                f"{path}: {name} pass allocates {wpb:.1f} minor words per "
                f"guest block (bound {bound})"
            )
    print(
        f"dispatch OK: chain-hit rate {ch['chain_hit_rate']:.1%}, "
        f"{ch['minor_words_per_block']:.1f}/"
        f"{j['unchained']['minor_words_per_block']:.1f} words/block "
        f"(chained/unchained), parity holds"
    )


def cmd_obs(bench_path, trace_path):
    j = load(bench_path)
    check_envelope(j, bench_path, "obs")
    if not j["parity"]:
        fail(f"{bench_path}: observability changed guest results")
    if not j["recorder_parity"]:
        fail(f"{bench_path}: the flight recorder changed guest results")
    if j["disabled_overhead_pct"] > 5.0:
        fail(
            f"{bench_path}: disabled overhead "
            f"{j['disabled_overhead_pct']}% > 5%"
        )
    if j["recorder_overhead_pct"] > 2.0:
        fail(
            f"{bench_path}: always-on recorder overhead "
            f"{j['recorder_overhead_pct']}% > 2%"
        )
    # Fence-elimination provenance: the risotto pipeline must both emit
    # fences and eliminate some of them, and the ledger counters must
    # reconcile into a sane ratio.
    if j["fence_emitted"] <= 0:
        fail(f"{bench_path}: fence ledger recorded no emitted fences")
    ratio = j["fence_merged_ratio"]
    if not (0.0 <= ratio <= 1.0):
        fail(f"{bench_path}: fence_merged_ratio {ratio} out of [0, 1]")
    if ratio <= 0.0:
        fail(f"{bench_path}: risotto merged/dropped no fences at all")
    expect = (j["fence_merged"] + j["fence_dropped"]) / j["fence_emitted"]
    if abs(ratio - expect) > 1e-3:
        fail(
            f"{bench_path}: fence_merged_ratio {ratio} does not match "
            f"ledger counters ({expect:.4f})"
        )
    # Compile latency: the metrics pass must have timed real backend
    # compiles and the percentiles must be positive and ordered.
    lat = j["compile_latency"]
    if lat["count"] <= 0:
        fail(f"{bench_path}: no backend compile latency samples")
    if not (0 < lat["p50_ns"] <= lat["p95_ns"] <= lat["p99_ns"]):
        fail(f"{bench_path}: compile latency percentiles not ordered: {lat}")
    trace = load(trace_path)
    evs = trace.get("traceEvents", [])
    if not evs:
        fail(f"{trace_path}: empty trace")
    for e in evs:
        if not {"name", "cat", "ph", "ts", "pid", "tid"} <= set(e):
            fail(f"{trace_path}: malformed event {e}")
        if e["ph"] not in ("X", "i"):
            fail(f"{trace_path}: unexpected phase in {e}")
    cats = {e["cat"] for e in evs}
    if "engine" not in cats or "opt" not in cats:
        fail(f"{trace_path}: missing categories (have {sorted(cats)})")
    print(
        f"obs OK: {len(evs)} events, categories {sorted(cats)}, "
        f"disabled overhead {j['disabled_overhead_pct']:.3f}%, "
        f"recorder {j['recorder_overhead_pct']:.3f}%, "
        f"merged ratio {ratio:.3f}, "
        f"compile p95 {lat['p95_ns']} ns ({lat['count']} samples)"
    )


def cmd_witness(report_dir):
    files = sorted(glob.glob(os.path.join(report_dir, "witness-*.json")))
    if not files:
        fail(f"{report_dir}: no witness artifacts written")
    seen = {}
    for f in files:
        j = load(f)
        check_envelope(j, f, "witness", git_rev=False)
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
    if "Axiom coverage" not in html or "Bench trajectory" not in html:
        fail(f"{html_path}: missing coverage matrix or bench trajectory")
    print(f"witness OK: {len(files)} witnesses over {sorted(seen)} programs")


def cmd_chaos(path):
    j = load(path)
    check_envelope(j, path, "chaos")
    if len(j["campaigns"]) < 3:
        fail(f"{path}: need >= 3 seeded plans, have {len(j['campaigns'])}")
    for c in j["campaigns"]:
        if not c["converged"]:
            fail(f"{path}: campaign diverged: {c}")
    if not (j["watchdog"]["fired"] and j["watchdog"]["recovered"]):
        fail(f"{path}: watchdog invariant failed: {j['watchdog']}")
    if not all(j["cache"].values()):
        fail(f"{path}: cache campaign failed: {j['cache']}")
    pm = j["postmortems"]
    if pm["written"] < 1:
        fail(f"{path}: injected trap produced no postmortem")
    if not (pm["trap_dumped"] and pm["deterministic"] and pm["well_formed"]):
        fail(f"{path}: postmortem campaign failed: {pm}")
    pm_file = os.path.join(pm["dir"], "postmortem-000.json")
    if os.path.exists(pm["dir"]) and not glob.glob(
        os.path.join(pm["dir"], "postmortem-*.json")
    ):
        fail(f"{path}: postmortem dir {pm['dir']} holds no dumps")
    print(
        f"chaos OK: {len(j['campaigns'])} campaigns over {j['cells']} cells, "
        f"{j['watchdog']['timeouts']} watchdog timeout(s), "
        f"{pm['written']} deterministic postmortem(s) in {pm['dir']}/ "
        f"({pm_file if os.path.exists(pm_file) else 'artifact elsewhere'})"
    )


def cmd_generator(path):
    j = load(path)
    check_envelope(j, path, "generator")
    if not j["verdicts_identical"]:
        fail(f"{path}: planned verdicts diverge from per-task")
    if not j["all_ok"]:
        fail(f"{path}: a generated scheme reported a violation")
    if j["classes"] <= 0 or j["classes"] > j["programs"]:
        fail(f"{path}: implausible class count {j['classes']}")
    if not (0.0 <= j["dedup_ratio"] < 1.0):
        fail(f"{path}: dedup_ratio {j['dedup_ratio']} out of range")
    if j["speedup"] < 1.0:
        fail(
            f"{path}: planned generated sweep slower than per-task "
            f"(speedup {j['speedup']:.3f} < 1.0)"
        )
    print(
        f"generator OK: {j['programs']} programs -> {j['classes']} classes "
        f"(dedup {j['dedup_ratio']:.1%}), speedup {j['speedup']:.2f}x"
    )


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    cmd, args = argv[1], argv[2:]
    if cmd == "envelope":
        cmd_envelope(args)
    elif cmd == "refinement" and len(args) == 1:
        cmd_refinement(args[0])
    elif cmd == "dispatch" and len(args) == 1:
        cmd_dispatch(args[0])
    elif cmd == "obs" and len(args) == 2:
        cmd_obs(args[0], args[1])
    elif cmd == "witness" and len(args) == 1:
        cmd_witness(args[0])
    elif cmd == "chaos" and len(args) == 1:
        cmd_chaos(args[0])
    elif cmd == "generator" and len(args) == 1:
        cmd_generator(args[0])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
