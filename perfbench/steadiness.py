#!/usr/bin/env python3
"""Run one set of seeds per workload and record how far the figures spread.

Each run is ``run.py --workload W --seed S --seconds N --trace 0`` in a fresh
process.  The set's per-run values, medians and spreads are appended to the
output file; the spread is (Q3 - Q1) / median with
``statistics.quantiles(values, n=4)``.  Then every declared metric's median
is compared with each earlier set in the file, as a share of the earlier
median, worse direction positive.

    python3 perfbench/steadiness.py --set E --first-seed 901 --runs 10 \\
        --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {key: m["value"] for key, m in result["metrics"].items()}
    for line in lines:   # the undeclared figures, "name: value unit"
        key, _, rest = line.partition(": ")
        if key.startswith("raw.") or key in ("op_s_p50", "yardstick_s"):
            values[key] = float(rest.split()[0])
    values["run_wall_s"] = wall
    values["correct"] = result["correct"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", required=True, help="a name for this set")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=BENCH / "steadiness.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    entry = {"set": args.set, "seeds": seeds, "seconds": spec["run_seconds"],
             "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "runs": {}, "summary": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, spec["run_seconds"]))
            values = " ".join(f"{k}={v:.4f}" for k, v in runs[-1].items()
                              if k != "correct")
            print(f"{args.set} {name} seed {seed}: {values}", flush=True)
        entry["runs"][name] = runs
        entry["summary"][name] = {
            key: {"median": statistics.median(r[key] for r in runs),
                  "spread": spread([r[key] for r in runs])}
            for key in runs[0] if key != "correct"}
        if not all(r["correct"] for r in runs):
            print(f"{name}: a run reported correct = false")
        for key, s in entry["summary"][name].items():
            mark = " (bound %.2f)" % bounds[key]["bound"] if key in bounds else ""
            print(f"{args.set} {name} {key}: median {s['median']:.4f} "
                  f"spread {s['spread']:.3f}{mark}", flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
    for earlier in data["sets"]:
        for name in names:
            before = earlier["summary"].get(name)
            if not before:
                continue
            for key, metric in bounds.items():
                old, new = before[key]["median"], entry["summary"][name][key]["median"]
                worse = (new - old) / old * (1 if metric["better"] == "lower" else -1)
                print(f"{earlier['set']} -> {args.set} {name} {key}: "
                      f"{worse:+.3f} worse (bound {metric['bound']})")
    data["sets"].append(entry)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
