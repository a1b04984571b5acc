#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload K times (each with its own --seed) in each of two
sets, using the command in BENCHMARK.json, and prints for every metric
its median, the interquartile range as a share of the median, and
(max - min) / median. Then checks the two sets against the bounds in
BENCHMARK.json:

* every end-to-end metric: IQR / median <= bound (and says whether it
  is below a third of the bound);
* every end-to-end metric: the second set's median is not worse than
  the first's by more than the bound.

Run from the root of the repository:

    python3 perfbench/steady.py --workload paper-sweep --runs 10 --sets 2

Exits 1 when a check fails. Each run's result line is appended to
perfbench/work/steady-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900, check=False)
    if out.returncode != 0:
        sys.exit(f"run failed (exit {out.returncode}): {' '.join(args)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    os.makedirs("perfbench/work", exist_ok=True)
    log = open(f"perfbench/work/steady-{opts.workload}.jsonl", "a")

    sets = []
    for s in range(opts.sets):
        values = {}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result = run_once(bench["command"], opts.workload, seed, seconds, opts.trace)
            log.write(json.dumps({"set": s, "seed": seed, "result": result}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                print(f"set {s} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        sets.append(values)

    ok = True
    print(f"{'metric':<28} {'set':>3} {'median':>14} {'iqr/med':>8} {'range/med':>9}  check")
    for m in metrics:
        name = m["name"]
        present = [v[name] for v in sets if name in v]
        if not present:
            continue
        meds = []
        for s, values in enumerate(present):
            med, iqr, rng = spread(values)
            meds.append(med)
            check = ""
            if "bound" in m:
                if iqr > m["bound"]:
                    check, ok = f"FAIL spread > bound {m['bound']}", False
                elif iqr > m["bound"] / 3:
                    check = f"spread > bound/3 ({m['bound'] / 3:.4f})"
            print(f"{name:<28} {s:>3} {med:>14.6g} {iqr:>8.4f} {rng:>9.4f}  {check}")
        if "bound" in m and len(meds) == 2 and meds[0] != 0:
            worse = (meds[1] - meds[0]) / abs(meds[0])
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok &= verdict == "ok"
            print(f"{'':<28}     second median worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
