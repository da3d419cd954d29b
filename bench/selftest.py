"""The benchmark's own tests.

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

They run ``bench/run.py`` at the minimum job-list size (``--size min``), nine
runs of a few seconds each.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs as joblib  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("selfenergy.newton_iters", "tables.spectral_nodes", "tables.spectral_builds",
                "oracle.modes")


def _run_uncached(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "min"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_run = functools.lru_cache(maxsize=None)(_run_uncached)


def test_min_run_prints_every_metric_with_its_unit():
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_stability_margin_violation_counts_as_failed_job():
    import oscbath
    import oscbath.cli as cli
    from worker import Runner

    work = BENCH / ".selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(cli, oscbath, work)
        bad = joblib.Job("unstable", "pole", (("omega", 0.01), ("lambda", 0.5),
                                              ("exponent", 1.0), ("cutoff", 5.0)))
        good = joblib.Job("reference", "pole", joblib.REFERENCE)
        result = runner.run_pass([bad, good])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert [j["error"] for j in result["jobs"]] == ["PositivityViolated (exit 2)", None]


def test_same_seed_same_jobs_and_counts():
    for workload in WORKLOADS:
        assert joblib.build_jobs(workload, 7) == joblib.build_jobs(workload, 7)
        first = _run(workload, 1)["metrics"]
        again = _run_uncached(workload, 1)["metrics"]
        for name in EXACT_COUNTS:
            assert first[name]["value"] == again[name]["value"], (workload, name)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok", flush=True)
