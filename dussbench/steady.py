#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report the spread.

    python3 dussbench/steady.py --workload vocoder --runs 10 --seed 1

Runs `run.py` once per seed (seed, seed + 1, ...), each in its own
process, one after another; with `--sets 2` it does so twice. For every
end-to-end metric it prints the median and quartiles of each set, the
spread (interquartile distance over the median) against the metric's bound
in BENCHMARK.json, and from the second set on, how far the median moved
from the first set's, in either direction. A spread passes when it is
within the bound and is marked `steady` when it is within a third of it;
a moved median passes when it moved by no more than the bound. It also
checks that every run was correct, that the share of failed
operations is the same in every run, and, by running the first seed once
more, that the same seed gives byte-identical artefacts. Exits 1 when any
of these fails.

With `--trace` it makes traced runs instead and prints the quartiles of
every per-layer metric, which have no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --seed {seed} exited {proc.returncode}")
    suffix = "-trace" if trace else ""
    with open(os.path.join(HERE, "out", f"result-{workload}-{seed}{suffix}.json")) as fh:
        detail = json.load(fh)
    return json.loads(lines[-1]), detail


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def traced(args, bench, seconds: int) -> int:
    values = {m["name"]: [] for m in bench["per_layer"]}
    for i in range(args.runs):
        result, _ = run_once(args.workload, args.seed + i, seconds, 1)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{args.runs} traced runs of {args.workload}, {seconds} s each")
    print(f"{'metric':34s} {'q1':>11s} {'median':>11s} {'q3':>11s}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        print(f"{name:34s} {q1:11.5g} {med:11.5g} {q3:11.5g}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first workload seed")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace", action="store_true",
                   help="report the per-layer metrics of traced runs instead")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if args.trace:
        return traced(args, bench, seconds)
    ok = True
    first_medians = None
    shares = set()
    for s in range(args.sets):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed + i
            result, detail = run_once(args.workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"seed {seed}: incorrect output")
                ok = False
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {s + 1} seed {seed}: rounds={detail['rounds']} "
                  + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
            if s == 0 and i == 0:
                first_detail = detail
        medians = {}
        print(f"\nset {s + 1}: {args.runs} runs of {args.workload}, {seconds} s each")
        print(f"{'metric':24s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            medians[name] = med
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "UNSTEADY")
            if spread > bound:
                ok = False
            line = (f"{name:24s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                    f"{spread:8.4f} {bound:6.3f}  {verdict}")
            if first_medians is not None:
                moved = (med - first_medians[name]) / first_medians[name]
                line += f"  moved from set 1 by {moved:+.4f}"
                if abs(moved) > bound:
                    ok = False
                    line += " (OVER BOUND)"
            print(line)
        if first_medians is None:
            first_medians = medians
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False

    _, again = run_once(args.workload, args.seed, seconds, 0)
    same = all(again[k] == first_detail[k] for k in ("setup_digest", "round_digest"))
    print(f"seed {args.seed} run again: artefacts "
          f"{'byte-identical' if same else 'DIFFER'}")
    ok = ok and same
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
