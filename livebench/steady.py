#!/usr/bin/env python3
"""Steadiness check for the live-stack benchmark.

Runs each workload N times on one commit, each run with another seed,
and prints for every metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. End-to-end metrics are set
against their bound in BENCHMARK.json; a spread above a third of the
bound is flagged, since two sets of runs must agree within the bound.

With --baseline, the medians are also compared with an earlier set saved
by --save: a median worse than the baseline's by more than the bound is
flagged. That is how the bounds are re-checked on a new commit.

Run from the repository root:

  python3 livebench/steady.py --runs 10 --save set1.json
  python3 livebench/steady.py --runs 10 --baseline set1.json
  python3 livebench/steady.py --runs 3 --workloads tau --trace
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "livebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)}: exit {out.returncode}")
    for line in lines[:-1]:
        if line.startswith("check failed"):
            print(f"  {workload} seed {seed}: {line}")
    res = json.loads(lines[-1])
    m = re.search(r"serial p50=\S+ p99=([0-9.]+)us \(n=(\d+)\)", out.stdout)
    if m:
        res["serial_p99"] = {"value": float(m.group(1)), "samples": int(m.group(2))}
    return res


def spread(values):
    q1, m, q3 = statistics.quantiles(values, n=4)
    return m, q1, q3, (q3 - q1) / m if m else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics, no bounds")
    ap.add_argument("--save", help="write the runs' results to this JSON file")
    ap.add_argument("--baseline", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)

    saved, bad = {}, False
    for w in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(w, seed, seconds, args.trace))
            r = results[-1]
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        saved[w] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        incorrect = sum(not r["correct"] for r in results)
        print(f"\n{w}: {args.runs} runs of {seconds}s, seeds {args.first_seed}..{args.first_seed + args.runs - 1}; "
              f"failed share {shares}; incorrect runs {incorrect}")
        bad |= incorrect > 0 or len(shares) > 1
        p99 = [r["serial_p99"] for r in results if "serial_p99" in r]
        if len(p99) >= 4:
            med, q1, q3, sp = spread([p["value"] for p in p99])
            n = min(p["samples"] for p in p99)
            print(f"  serial p99 (no bound): median {med:.4g} us, q1 {q1:.4g}, q3 {q3:.4g}, spread {sp:.3f}; "
                  f">= {n} samples per run")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "WIDE")
                bad |= sp > bound
            if base is not None and bound is not None and w in base:
                bmed = statistics.median(r["metrics"][m["name"]]["value"] for r in base[w])
                worse = (med - bmed) / bmed if m["better"] == "lower" else (bmed - med) / bmed
                verdict += f"; vs baseline {worse:+.3f}" + (" WORSE" if worse > bound else "")
                bad |= worse > bound
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {m['name']:30} {med:12.4g} {q1:12.4g} {q3:12.4g} {sp:7.3f} {b}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
