"""Repeat perfbench/run.py over several seeds and summarise the spread.

    python3 perfbench/spread.py --workloads cell-serial,baseline-sweep \
        --seeds 1-10 --seconds 55 [--traced 1] [--record LABEL]

For each workload it runs one plain run per seed and, with --traced N, N
traced runs, then prints each metric's median, first and third quartile
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. With
--record it appends the summary, with the environment of the first run,
to perfbench/trajectory.json, the before/after record performance changes
cite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TRAJECTORY = BENCH_DIR / "trajectory.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=BENCH_DIR.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), {})
    return {"result": json.loads(lines[-1]), "environment": env}


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "n": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--record", help="label of a trajectory entry to append")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    entry = {"label": args.record, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        plain, traced = [], []
        for seed in seeds:
            run = bench_once(workload, seed, args.seconds, 0)
            entry.setdefault("environment", run["environment"])
            plain.append(run["result"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()), flush=True)
        for seed in seeds[:args.traced]:
            traced.append(bench_once(workload, seed, args.seconds, 1)["result"])
        summary = {"attempted": sum(r["attempted"] for r in plain + traced),
                   "failed": sum(r["failed"] for r in plain + traced),
                   "end_to_end": summarise(plain)}
        if traced:
            summary["per_layer"] = summarise(traced)
        entry["workloads"][workload] = summary
        for name, s in summary["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f}", flush=True)
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
