"""oscbath benchmark: one workload, one seed, one line of JSON metrics.

    python3 bench/run.py --workload pole_scan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  The workload's jobs go through
``oscbath.cli.main`` in one child process (``bench/worker.py``) with the BLAS
thread count pinned in the child's environment only.  Set-up time is the
median over ``SETUP_PROBES`` fresh children, from spawn to ready.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose
end-to-end numbers are not reported.  Lines before it give provenance and
the failures by error class.  Metric names, units and the reasons behind
them are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 3
# BLAS threads per workload, capped at nproc.  Two threads steady the dense
# eigh of bath_ladder; the memory-bound table sums of decay_phases ran faster
# and spread less on one.
BLAS_THREADS = {"pole_scan": 1, "decay_phases": 1, "bath_ladder": 2}
DEADLINE_S = 170.0
TAIL_BEYOND = 10   # jobs the tail percentile must leave above it

LAYER_TIMES = ("selfenergy.find_resonance", "selfenergy.perturbative", "quadrature.adaptive",
               "quadrature.pv", "tables.spectral_build", "tables.spectral_eval",
               "tables.ray_build", "tables.ray_eval", "survival.phase_fits",
               "oracle.discretize", "oracle.eigh", "oracle.amplitude", "density.steps",
               "cli.write")
LAYER_COUNTS = ("selfenergy.find_resonance_calls", "selfenergy.newton_iters",
                "quadrature.adaptive_calls", "quadrature.pv_points", "tables.spectral_builds",
                "tables.spectral_nodes", "tables.spectral_exps", "tables.ray_nodes",
                "tables.ray_exps", "oracle.modes", "density.steps", "cli.rows_written")
LAYER_MAXIMA = (("tables.sum_defect_max", "1"), ("oracle.dense_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, env, deadline, probe: int, setup_only: bool) -> float:
    """Run one worker to completion; returns its spawn-to-ready seconds."""
    ready = WORK / f"ready{probe}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work", str(WORK),
           "--ready-file", str(ready), "--result-file", str(WORK / "result.json")]
    if setup_only:
        cmd.append("--setup-only")
    log = WORK / f"worker{probe}.log"
    with log.open("w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"worker exited with {code}:\n{tail}")
    # perf_counter reads CLOCK_MONOTONIC, which parent and child share
    return json.loads(ready.read_text())["ready"] - start


def _tail(values):
    """Value with TAIL_BEYOND values above it, and its percentile; the maximum
    when there are not that many values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _failures(passes):
    attempted = failed = 0
    classes = {}
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            if job["error"] is not None:
                failed += 1
                classes[job["error"]] = classes.get(job["error"], 0) + 1
    return attempted, failed, classes


def end_to_end(result, setup):
    passes = [p for p in result["passes"] if not p["traced"]]
    per_job = {}
    for p in passes:
        for job in p["jobs"]:
            per_job.setdefault(job["id"], []).append(job["wall_s"])
    medians = [statistics.median(v) for v in per_job.values()]
    tail, pct = _tail(medians)
    attempted, failed, _ = _failures(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_p50_s": (statistics.median(medians), "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {"passes": len(passes), "jobs_per_pass": len(medians),
            "tail_percentile": round(pct, 2), "setup_samples": len(setup)}
    return metrics, info


def per_layer(result):
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    first = traced[0]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (statistics.median(p["self_times"].get(name, 0.0)
                                                  for p in traced), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (first["counts"].get(name, 0), "count")
    for name, unit in LAYER_MAXIMA:
        metrics[name] = (first["maxima"].get(name, 0.0), unit)
    metrics["survival.dual_sup_max"] = (first["dual_sup_max"], "1")
    metrics["bench.failed_job_s"] = (statistics.median(
        sum((j["wall_s"] for j in p["jobs"] if j["error"] is not None), 0.0) for p in plain), "s")
    metrics["bench.trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                         - statistics.median(p["wall_s"] for p in plain), "s")
    metrics["bench.uncovered_share"] = (statistics.median(
        p["self_times"]["cli.job"] / p["root_s"] for p in traced), "ratio")
    info = {"plain_passes": len(plain), "traced_passes": len(traced)}
    return metrics, info


def _provenance(args, threads):
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # a checkout without git history
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "oscbath").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines += len(text.splitlines())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_oscbath_lines": lines,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "blas_threads": threads,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oscbath benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(BLAS_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min: the smallest job list, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "oscbath" / "cli.py").is_file():
        print(f"bench: no oscbath sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker: SystemExit unwinds through _spawn
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    threads = min(BLAS_THREADS[args.workload], os.cpu_count() or 1)
    env = _child_env(threads)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        setup = [_spawn(args, env, deadline, i, setup_only=True)
                 for i in range(SETUP_PROBES - 1)]
        setup.append(_spawn(args, env, deadline, SETUP_PROBES - 1, setup_only=False))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = json.loads((WORK / "result.json").read_text())

    if args.trace:
        metrics, info = per_layer(result)
    else:
        metrics, info = end_to_end(result, setup)
    attempted, failed, classes = _failures(result["passes"])
    correct = not any(c.startswith("check ") or c.endswith("(uncaught)") for c in classes)
    provenance = _provenance(args, threads) | result["versions"] | info
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("failures " + json.dumps({"fail_ratio": f"{failed}/{attempted}", "by_class": classes},
                                   sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
