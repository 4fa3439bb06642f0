#!/usr/bin/env python3
"""Run the benchmark several times per workload, each run with another seed,
and collect the result lines for compare.py.

    python3 perfbench/runs.py --runs 10 --out runs-a.jsonl
    python3 perfbench/runs.py --runs 5 --workloads serve-mix --trace 1 --out t.jsonl

Run it from the repository root. It reads the command, the run length and
the workloads from BENCHMARK.json. Each output line is one run: workload,
seed, trace, digest, the host slowdown the run measured, wall_s, exit and
result, the benchmark's own last line. Seeds go first-seed, first-seed+1,
...; the seed loop is the outer one, so slow drift of the machine touches
every workload alike.
"""

import argparse
import json
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--out", required=True, help="JSON-lines file to append to")
    ap.add_argument("--workloads", default=",".join(names), help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in names:
            ap.error("unknown workload %r" % w)

    bad = 0
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.first_seed + i
            for w in workloads:
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ]
                start = time.monotonic()
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                wall = time.monotonic() - start
                lines = done.stdout.strip().splitlines()
                digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), None)
                host = next((l.split() for l in lines if l.startswith("host: ")), None)
                slowdown = float(host[host.index("slowdown") + 1]) if host else None
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                if done.returncode != 0 or result is None or not result["correct"] or result["failed"]:
                    bad += 1
                    sys.stderr.write("".join(l + "\n" for l in lines if l.startswith("FAIL")))
                rec = {"workload": w, "seed": seed, "trace": args.trace, "digest": digest, "slowdown": slowdown,
                       "wall_s": round(wall, 2), "exit": done.returncode, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                sys.stderr.write("%s seed=%d trace=%d %.1fs exit=%d correct=%s\n" % (
                    w, seed, args.trace, wall, done.returncode, result and result["correct"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
