"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads pole_scan,decay_phases,bath_ladder \
        --seeds 1-10 --trace-seeds 1 --out bench/results/baseline.json

For every workload and end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (interquartile
distance over the median) and the sample count.  Traced runs give the
per-layer breakdown.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        record[key] = json.loads(payload)
    return record


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    summary = {"n": len(values), "median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="pole_scan,decay_phases,bath_ladder")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; BENCHMARK.json's run_seconds when omitted")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            metrics = runs[-1]["result"]["metrics"]
            print(workload, seed, {k: round(v["value"], 4) for k, v in metrics.items()},
                  flush=True)
        names = runs[0]["result"]["metrics"]
        entry = {
            "end_to_end": {k: dict(summarise([r["result"]["metrics"][k]["value"] for r in runs]),
                                   unit=names[k]["unit"]) for k in names},
            "runs": runs,
        }
        traced = [run_once(workload, seed, seconds, 1) for seed in _seeds(args.trace_seeds)]
        if traced:
            layer = traced[0]["result"]["metrics"]
            entry["per_layer"] = {k: dict(summarise([t["result"]["metrics"][k]["value"]
                                                     for t in traced]), unit=layer[k]["unit"])
                                  for k in layer}
            entry["traced_runs"] = traced
        report["workloads"][workload] = entry
        for k, s in entry["end_to_end"].items():
            print(f"  {workload} {k}: median {s['median']:.6g} spread {s.get('spread')}",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
