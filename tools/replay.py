"""Replay a benchmark workload's jobs through ``oscbath.cli.main``, job by job.

    python3 tools/replay.py decay_phases 1-10
    python3 tools/replay.py pole_scan 1-5 --against ../other-checkout

Prints one line per job: seed, job id, exit code, the error class named on
stderr and the bench check it missed ("-" for none).  The job lists and the
checks are imported from this checkout's ``bench/jobs.py`` and
``bench/checks.py``.  With ``--against`` the package of another checkout
replays the same jobs in a child process at the same time, and only the
lines that differ are printed, the other checkout's after ``|``.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def replay(src: Path, workload: str, seeds) -> list[str]:
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import checks
    import jobs
    import oscbath
    from oscbath import cli

    checker, lines = checks.Checker(oscbath), []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            rows, ladder = [], {}
            for job in jobs.build_jobs(workload, seed):
                config, out = Path(tmp, job.id + ".cfg"), Path(tmp, str(seed), job.id)
                config.write_text(job.config_text())
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main([job.command, "--config", str(config), "--out", str(out)])
                error = json.loads(err.getvalue().splitlines()[-1])["error"] if code else "-"
                missed = checker.check(job, out) if code == 0 else None
                rung = job.params["oracle_n"] if job.params.get("oracle_scheme") == "uniform" else None
                if rung is not None and code == 0 and missed is None:
                    report = json.loads((out / "oracle.json").read_text())
                    ladder[rung] = report["ladder"][0]["max_abs_dP"]
                rows.append((job.id, code, error, missed, rung))
            ladder_missed = checks.oracle_ladder(ladder)  # the uniform rungs are checked together
            lines += [f"{seed} {name} {code} {error} {missed or ladder_missed.get(rung) or '-'}"
                      for name, code, error, missed, rung in rows]
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("pole_scan", "decay_phases", "bath_ladder"))
    parser.add_argument("seeds", help="a seed or an inclusive range such as 1-10")
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    if args.against is not None:
        child = subprocess.Popen([sys.executable, __file__, args.workload, args.seeds,
                                  "--src", str(args.against / "src")],
                                 stdout=subprocess.PIPE, text=True)
    lines = replay(args.src, args.workload, range(int(lo), int(hi or lo) + 1))
    if args.against is None:
        print("\n".join(lines))
        return
    other = child.communicate()[0].splitlines()
    if child.returncode:
        sys.exit(f"the replay of {args.against} failed")
    diffs = [f"{a} | {b}" for a, b in zip(lines, other) if a != b]
    print("\n".join(diffs) or f"{len(lines)} jobs, no difference")
    sys.exit(1 if diffs or len(lines) != len(other) else 0)


if __name__ == "__main__":
    main()
