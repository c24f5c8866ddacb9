#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

A set of runs is either a directory holding the captured standard output
of perf/run.py runs (one file per run; the last line is the result, the
line before it names the workload and seed), or NAME.json#SET for a set
stored in a baseline file such as perf/baseline.json.

    python3 perf/compare.py BASE NEW      # does NEW regress on BASE?
    python3 perf/compare.py --self A B    # are two sets of one commit steady?
    python3 perf/compare.py --write-baseline OUT.json --machine TEXT A B

First one row per workload on the runs' output checks: the failed ops
and the runs that were not correct on each side.  The workload FAILs
when a NEW run was not correct or NEW failed more ops than BASE (in
--self, when any run of either set failed), and then none of its
metrics counts as a gain.

Then one row per (metric, workload): each side's median and quartiles
over its runs.  Verdicts, per the choosing-metrics rules:
  unresolved  the base runs' spread (q3 - q1) / median exceeds the bound,
              unless every NEW run beats every BASE run
  regression  NEW's median is worse than BASE's by more than the bound
  gain        NEW wins at least 9/10 of the pairs (runs paired by seed,
              ties count for neither) and the medians differ by more
              than the base quartile distance
  same        otherwise
--self checks what the benchmark promises of one commit: every spread
within its bound, and no median worse by more than the bound.  Exit
status 1 when --self fails, an output check FAILs or a regression is
found.  Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs_dir(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        lines = [l for l in open(os.path.join(path, name)).read().splitlines() if l.strip()]
        if len(lines) < 2:
            continue
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if "workload" not in detail or "metrics" not in result:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(detail["workload"], []).append({
            "seed": detail["seed"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": values,
        })
    return runs


def load_set(spec):
    if os.path.isdir(spec):
        return load_runs_dir(spec)
    path, _, name = spec.partition("#")
    sets = json.load(open(path))["sets"]
    return {w: entry["runs"] for w, entry in sets[name or sorted(sets)[0]].items()}


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else float("inf")


def worse_by(base, new, better):
    """How much worse NEW's median is than BASE's, as a share of BASE's."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def rows(base, new, metrics):
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            yield workload, m, b, n, base[workload], new[workload]


def pair_wins(base_runs, new_runs, name, better):
    by_seed = {r["seed"]: r["metrics"][name] for r in base_runs}
    pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in new_runs if r["seed"] in by_seed]
    if not pairs:
        pairs = list(zip([r["metrics"][name] for r in base_runs], [r["metrics"][name] for r in new_runs]))
    wins = sum(1 for b, n in pairs if beats(n, b, better))
    return wins, len(pairs)


def failures(runs):
    """Failed ops over a set's runs, and how many runs were not correct."""
    return sum(r["failed"] for r in runs), sum(1 for r in runs if not r["correct"])


def check_outputs(base, new, self_mode):
    """One row per workload on the runs' output checks.  Returns the
    workloads whose NEW runs failed more than BASE's (in --self, either
    set failed at all): no metric of theirs can show a gain."""
    broken = set()
    print(f"{'workload':18} {'base failed ops / incorrect runs':>34} {'new failed ops / incorrect runs':>34}  verdict")
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            broken.add(workload)
            print(f"{workload:18} {'':>34} {'':>34}  FAIL (no runs on one side)")
            continue
        (bf, bi), (nf, ni) = failures(base[workload]), failures(new[workload])
        bad = bf + bi + nf + ni > 0 if self_mode else ni > 0 or nf > bf
        if bad:
            broken.add(workload)
        print(f"{workload:18} {f'{bf} / {bi}':>34} {f'{nf} / {ni}':>34}  {'FAIL' if bad else 'ok'}")
    print()
    return broken


def compare(base, new, metrics, self_mode):
    broken = check_outputs(base, new, self_mode)
    failed = bool(broken)
    print(f"{'workload':18} {'metric':20} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload, m, b, n, base_runs, new_runs in rows(base, new, metrics):
        sb, sn = summary(b), summary(n)
        bound, better = m["bound"], m["better"]
        worse = worse_by(sb["median"], sn["median"], better)
        sp = max(spread(sb), spread(sn)) if self_mode else spread(sb)
        wins, pairs = pair_wins(base_runs, new_runs, m["name"], better)
        all_better = all(beats(x, y, better) for x in n for y in b)
        if self_mode:
            ok = worse <= bound and sp <= bound
            verdict = "ok" if ok else "FAIL"
            if ok and sp > bound / 3:
                verdict = "ok (spread above bound/3)"
            failed |= not ok
        elif sp > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            failed = True
        elif pairs and wins >= 0.9 * pairs and abs(sn["median"] - sb["median"]) > sb["q3"] - sb["q1"]:
            verdict = "no gain: outputs failed" if workload in broken else f"gain ({wins}/{pairs} pairs)"
        else:
            verdict = "same"
        fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"
        print(f"{workload:18} {m['name']:20} {fmt(sb):>36} {fmt(sn):>36} "
              f"{-worse:+8.2%} {sp:7.2%} {bound:6.0%}  {verdict}")
    return failed


def write_baseline(out, sets, bench, machine):
    doc = {"machine": machine, "run_seconds": bench["run_seconds"], "sets": {}}
    for name, runs in sets.items():
        doc["sets"][name] = {
            w: {
                "runs": rs,
                "failed_ops": failures(rs)[0],
                "incorrect_runs": failures(rs)[1],
                "summary": {m["name"]: summary([r["metrics"][m["name"]] for r in rs]) for m in bench["end_to_end"]},
            }
            for w, rs in sorted(runs.items())
        }
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self", dest="self_mode", action="store_true", help="two sets of the same commit")
    ap.add_argument("--write-baseline", metavar="OUT", help="store the two sets as a baseline file")
    ap.add_argument("--machine", default="", help="hardware the runs were measured on, for the baseline")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    base, new = load_set(args.base), load_set(args.new)
    if args.write_baseline:
        write_baseline(args.write_baseline, {"A": base, "B": new}, bench, args.machine)
    failed = compare(base, new, bench["end_to_end"], args.self_mode)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
