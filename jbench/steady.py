#!/usr/bin/env python3
"""Steadiness check: repeated untraced runs of every workload, alternating
workloads, then each end-to-end metric's median and quartiles against the
bound BENCHMARK.json gives it.

    python3 jbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                             [--workloads a,b] [--seed-base 1]

Run from the repository root.  For every workload and metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the bound; a spread above a
third of the bound is flagged, for every metric, setup_s included.  With
--sets 2 it repeats the whole series on fresh seeds and flags any metric
whose second median is worse than the first by more than its bound.  It
also checks that the failed share of operations is identical in every run.
Raw results go to .bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(args), p.returncode))
    return json.loads(lines[-1])


def one_set(bench, workloads, seeds, seconds):
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(bench["command"], w, seed, seconds)
            results[w].append(r)
            print("  %-15s seed %-4d correct=%s failed=%d/%d" %
                  (w, seed, r["correct"], r["failed"], r["attempted"]),
                  flush=True)
    return results


def summarize(bench, results):
    ok = True
    for w, runs in results.items():
        print("\n%s (%d runs)" % (w, len(runs)))
        if not all(r["correct"] for r in runs):
            print("  INCORRECT run(s)")
            ok = False
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            print("  failed share differs between runs: %s" %
                  sorted(str(s) for s in shares))
            ok = False
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("  %-16s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%%  bound %4.0f%%%s" %
                  (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                   flag))
    return ok


def compare(bench, first, second):
    ok = True
    print("\nsecond set against first")
    for w in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first[w])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second[w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            ok = ok and not flag
            print("  %-15s %-16s %-14.6g -> %-14.6g worse by %6.2f%%%s" %
                  (w, m["name"], a, b, 100 * worse, flag))
        fa = {Fraction(r["failed"], r["attempted"]) for r in first[w]}
        fb = {Fraction(r["failed"], r["attempted"]) for r in second[w]}
        if fa != fb:
            print("  %-15s failed share differs between sets" % w)
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed-base", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = (a.workloads.split(",") if a.workloads else
                 [w["name"] for w in bench["workloads"]])
    sets = []
    for s in range(a.sets):
        base = a.seed_base + s * a.runs
        print("set %d: seeds %d..%d, %g s per run" %
              (s + 1, base, base + a.runs - 1, seconds), flush=True)
        sets.append(one_set(bench, workloads,
                            range(base, base + a.runs), seconds))
    ok = all([summarize(bench, res) for res in sets])
    if len(sets) == 2:
        ok = compare(bench, sets[0], sets[1]) and ok
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(sets, f)
    print("\n%s" % ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
