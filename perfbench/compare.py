#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py base.jsonl new.jsonl
    python3 perfbench/compare.py base.jsonl --baseline perfbench/baseline.json

Inputs are files written by runs.py. For every workload and end-to-end
metric it prints each side's median and quartiles (statistics.quantiles,
n=4), each side's spread (quartile distance over median) and a verdict:

  better      the new side wins at least 9 in 10 of the run pairs (runs are
              paired in file order; ties count for neither) and the medians
              differ by more than the base side's quartile distance;
  worse       the new median is worse than the base median by more than the
              metric's bound from BENCHMARK.json, and the spread of both
              sides is within that bound;
  unresolved  a side's spread is wider than the bound, so a change within
              the bound cannot be told from noise;
  unchanged   otherwise.

Per-layer metrics (runs made with --trace 1) are listed the same way; they
have no bound, so their verdict is better or unchanged. --baseline writes
the base side's medians and quartiles as JSON. The exit code is 1 if any end-to-end verdict
is worse or unresolved, or if any run was incorrect.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = {}
    bad = 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec["result"]
            if res is None or not res["correct"] or res["failed"]:
                bad += 1
                continue
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs, bad


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def verdict(base, new, better, bound):
    sb, sn = summary(base), summary(new)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(sn["median"] - sb["median"]) > sb["q3"] - sb["q1"]:
        return "better"
    if bound is None:
        return "unchanged"
    if sb["spread"] > bound or sn["spread"] > bound:
        return "unresolved"
    worsening = -sign * (sn["median"] - sb["median"]) / sb["median"]
    return "worse" if worsening > bound else "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--baseline", help="write the base side's medians and quartiles here")
    ap.add_argument("--note", default="", help="what the base runs were, stored with --baseline")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    base, bad = load(args.base)
    new, bad_new = (load(args.new) if args.new else ({}, 0))
    bad += bad_new
    if bad:
        print("%d incorrect run(s) left out" % bad)

    failing = bad > 0
    record = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            a = base.get((w, trace))
            if not a:
                continue
            b = new.get((w, trace))
            print("\n%s (%s; base %d runs%s)" % (w, "per-layer" if trace else "end-to-end", len(a),
                                                ", new %d runs" % len(b) if b else ""))
            digests = {r["digest"] for r in a + (b or []) if r.get("digest")}
            seeds = {r["seed"] for r in a + (b or [])}
            if b and len(digests) > len(seeds):
                print("  results digest differs between the sides at some seed")
            print("  %-30s %10s %10s %10s %7s  %10s %10s %10s %7s  %s" % (
                "metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "verdict"))
            for m, t in metrics:
                if t != trace:
                    continue
                va = [r["result"]["metrics"][m["name"]]["value"] for r in a]
                sa = summary(va)
                record.setdefault(w, {})[m["name"]] = {
                    "median": sa["median"], "q1": sa["q1"], "q3": sa["q3"], "unit": m["unit"], "runs": sa["n"]}
                row = "  %-30s %10.4g %10.4g %10.4g %6.1f%%" % (m["name"], sa["q1"], sa["median"], sa["q3"], 100 * sa["spread"])
                if b:
                    vb = [r["result"]["metrics"][m["name"]]["value"] for r in b]
                    sn = summary(vb)
                    v = verdict(va, vb, m["better"], m.get("bound"))
                    row += "  %10.4g %10.4g %10.4g %6.1f%%  %s" % (sn["q1"], sn["median"], sn["q3"], 100 * sn["spread"], v)
                    if trace == 0 and v in ("worse", "unresolved"):
                        failing = True
                elif "bound" in m and sa["spread"] > m["bound"] / 3:
                    row += "  spread above a third of the bound %.2f" % m["bound"]
                print(row)
    if args.baseline:
        # One metric per line keeps the file short and its diffs readable.
        lines = ['{"note": %s,' % json.dumps(args.note), ' "workloads": {']
        for i, (w, ms) in enumerate(sorted(record.items())):
            lines.append('  %s: {' % json.dumps(w))
            for j, (name, v) in enumerate(sorted(ms.items())):
                lines.append('   %s: %s%s' % (json.dumps(name), json.dumps(v, sort_keys=True), "," if j < len(ms) - 1 else ""))
            lines.append("  }" + ("," if i < len(record) - 1 else ""))
        lines.append(" }}")
        with open(args.baseline, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
