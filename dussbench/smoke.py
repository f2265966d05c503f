#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size.

    python3 dussbench/smoke.py

For each workload it runs `run.py --smoke` untraced and traced, and checks
that each run exits 0, is correct with no failed operation, and prints
exactly the metrics BENCHMARK.json names for its mode, each with its unit.
It then copies the benchmark without the program's sources into a scratch
directory and checks that a run there fails without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join(cwd, "dussbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {lines[-1][:200]}")
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            print(f"{label}: ok" if not failures or not failures[-1].startswith(label)
                  else f"{label}: FAILED", flush=True)

    bare = os.path.join(HERE, "work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "dussbench"),
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"run without sources: exit {proc.returncode}, "
                            f"stdout {proc.stdout.strip()[:200]!r}")
        else:
            print("run without sources: fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    for f in failures:
        print(f, file=sys.stderr)
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
