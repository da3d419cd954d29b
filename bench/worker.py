"""Benchmark child process: runs one workload through ``oscbath.cli.main``.

Started by ``bench/run.py`` with the package on PYTHONPATH and the BLAS
thread count pinned.  It imports the CLI, runs the workload's warm-up jobs,
writes its ready time to ``--ready-file`` and, unless ``--setup-only``,
runs passes over the fixed job list until ``--seconds`` are used, one job
after another (a closed loop with one caller).  Each job's artifacts are
checked outside the timed region.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced; results go to
``--result-file``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import jobs as joblib
from checks import Checker, oracle_ladder
from tracing import Tracer


def _error_class(stderr_text: str) -> str | None:
    for line in reversed(stderr_text.strip().splitlines()):
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            return payload["error"]
    return None


class Runner:
    """Runs jobs in-process and checks their artifacts."""

    def __init__(self, cli, ob, work: Path):
        self.cli = cli
        self.work = work
        self.checker = Checker(ob)
        self._verified = {}   # (job id, artifact digest) -> check outcome

    def config_path(self, job) -> Path:
        path = self.work / "configs" / f"{job.id}.cfg"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job.config_text())
        return path

    def out_dir(self, job) -> Path:
        return self.work / "out" / job.id

    def run(self, job, tracer: Tracer | None = None) -> dict:
        """Time one CLI call; returns {id, wall_s, error}."""
        argv = [job.command, "--config", str(self.config_path(job)),
                "--out", str(self.out_dir(job))]
        gc.collect()
        captured_out, captured_err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    tracer.job = job.id
                    try:
                        code = tracer.span("cli.job", self.cli.main, argv)
                    finally:
                        tracer.job = None
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception fails the job, not the run
            code = None
            error = f"{type(exc).__name__} (uncaught)"
            traceback.print_exc(file=sys.__stderr__)  # into the worker log
        wall = time.perf_counter() - start
        if code is not None and code != 0:
            error = f"{_error_class(captured_err.getvalue()) or 'no error object'} (exit {code})"
        return {"id": job.id, "wall_s": wall, "error": error}

    def check(self, job) -> str | None:
        out = self.out_dir(job)
        digest = hashlib.sha1()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        key = (job.id, digest.hexdigest())
        if key not in self._verified:
            self._verified[key] = self.checker.check(job, out)
        return self._verified[key]

    def run_pass(self, job_list, tracer: Tracer | None = None) -> dict:
        records = []
        dual_sup = 0.0
        ladder = {}
        for job in job_list:
            record = self.run(job, tracer)
            if record["error"] is None:
                missed = self.check(job)
                if missed is not None:
                    record["error"] = f"check {missed}"
                elif job.command == "survival":
                    report = json.loads((self.out_dir(job) / "survival.json").read_text())
                    dual_sup = max(dual_sup, report["dual_method_sup"])
                elif job.command == "oracle" and job.params["oracle_scheme"] == "uniform":
                    report = json.loads((self.out_dir(job) / "oracle.json").read_text())
                    ladder[job.params["oracle_n"]] = report["ladder"][0]["max_abs_dP"]
            records.append(record)
        missed = oracle_ladder(ladder)
        for job, record in zip(job_list, records):
            if job.command == "oracle" and job.params["oracle_scheme"] == "uniform":
                if job.params["oracle_n"] in missed:
                    record["error"] = f"check {missed[job.params['oracle_n']]}"
        result = {"traced": tracer is not None,
                  "wall_s": sum(r["wall_s"] for r in records),
                  "jobs": records,
                  "dual_sup_max": dual_sup}
        if tracer is not None:
            result["self_times"] = tracer.self_times()
            result["counts"] = dict(tracer.counts)
            result["maxima"] = dict(tracer.maxima)
            result["root_s"] = sum(end - start for name, start, end, parent, _ in tracer.spans
                                   if parent < 0)
            result["spans"] = tracer.spans
        return result


def run_phase(runner, job_list, seconds, traced):
    """Passes over the job list until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            passes.append(runner.run_pass(job_list, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def _versions() -> dict:
    import numpy as np
    import scipy

    openblas = None
    with contextlib.suppress(Exception):
        config = np.show_config(mode="dicts")
        openblas = config["Build Dependencies"]["blas"].get("version")
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(joblib.SIZES), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--ready-file", type=Path, required=True)
    parser.add_argument("--result-file", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import oscbath
    import oscbath.cli as cli

    runner = Runner(cli, oscbath, args.work)
    for job in joblib.warmup_jobs(args.workload):
        record = runner.run(job)
        if record["error"] is not None:
            print(f"warm-up job {job.id} failed: {record['error']}", file=sys.stderr)
            return 3
    args.ready_file.write_text(json.dumps({"ready": time.perf_counter()}))
    if args.setup_only:
        return 0

    job_list = joblib.build_jobs(args.workload, args.seed, args.size)
    if args.trace:
        passes = (run_phase(runner, job_list, args.seconds / 2, traced=False)
                  + run_phase(runner, job_list, args.seconds / 2, traced=True))
    else:
        passes = run_phase(runner, job_list, args.seconds, traced=False)
    spans = [p.pop("spans") for p in passes if p["traced"]]
    if spans:
        (args.work / "spans.json").write_text(json.dumps(spans))
    result = {
        "jobs": [{"id": j.id, "command": j.command, "config": j.config_text()} for j in job_list],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    args.result_file.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
