"""Replay a benchmark workload's jobs through ``oscbath.cli.main``, job by job.

    python3 tools/replay.py decay_phases 1-10
    python3 tools/replay.py pole_scan 1-5 --against ../other-checkout
    python3 tools/replay.py decay_phases 1-3 --against ../other-checkout --artifacts
    python3 tools/replay.py decay_phases 1-10 --census tests/census/decay_phases.txt

Prints one line per job: seed, job id, exit code, the error class named on
stderr and the bench check it missed ("-" for none).  The job lists and the
checks are imported from this checkout's ``bench/jobs.py`` and
``bench/checks.py``.  With ``--against`` the package of another checkout
replays the same jobs in a child process at the same time, and only the
lines that differ are printed, the other checkout's after ``|``.

``--artifacts`` (with ``--against``) also compares the files of every job
that passes on both checkouts.  For each numeric CSV column and JSON field
that differs it prints the largest absolute and relative difference,
relative to the larger magnitude of the two values; a CSV row's text cells
(such as ``method``) label its column, and a JSON list's entries share one
label.  A last block gives the largest differences of each label over all
jobs.

``--census FILE`` writes the replay's lines to FILE when it does not exist.
When it does, the replay is compared with the lines of FILE for the same
seed and job: it prints every new failure, new pass and changed failure
(another exit code, error class or check), and exits 1 on a new failure, a
changed failure or a job that FILE does not hold.  A job fails when it exits
nonzero or misses a check.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def replay(src: Path, workload: str, seeds, tmp: Path) -> list[str]:
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import checks
    import jobs
    import oscbath
    from oscbath import cli

    checker, lines = checks.Checker(oscbath), []
    tmp.mkdir(parents=True, exist_ok=True)
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


def census(lines, path: Path) -> int:
    """Write the census ``path``, or compare ``lines`` with it; the exit code."""
    if not path.exists():
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} jobs to {path}")
        return 0
    recorded = {tuple(line.split()[:2]): line for line in path.read_text().splitlines()}
    report, failures, recorded_failures = [], 0, 0
    for line in lines:
        old = recorded.get(tuple(line.split()[:2]))
        if old is None:
            report.append(f"not in the census: {line}")
            continue
        was, now = (text.split()[2:] != ["0", "-", "-"] for text in (old, line))
        recorded_failures += was
        failures += now
        if now and not was:
            report.append(f"new failure: {line}")
        elif was and not now:
            report.append(f"new pass: {line} | {old}")
        elif now and line != old:
            report.append(f"changed failure: {line} | {old}")
    print("\n".join(report + [f"{len(lines)} jobs: {failures} failures, "
                              f"{recorded_failures} in the census"]))
    return 1 if any(not r.startswith("new pass") for r in report) else 0


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def numbers(path: Path) -> dict[str, list[float]]:
    """The numbers of one CSV or JSON artifact, by label, in file order."""
    found = {}
    if path.suffix == ".json":
        def walk(node, label):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{label}.{key}" if label else key)
            elif isinstance(node, list):
                for value in node:
                    walk(value, label + "[]")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found.setdefault(label, []).append(float(node))
        walk(json.loads(path.read_text()), "")
    elif path.suffix == ".csv":
        with path.open(newline="") as f:
            for row in csv.DictReader(f):
                cells = {column: _number(text) for column, text in row.items()}
                tag = ",".join(text for column, text in row.items() if cells[column] is None)
                for column, x in cells.items():
                    if x is not None:
                        found.setdefault(f"{column}[{tag}]" if tag else column, []).append(x)
    return found


def difference(xs, ys) -> tuple[float, float]:
    """Largest absolute and relative difference of two equally long lists."""
    d_abs = d_rel = 0.0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y) if math.isfinite(x - y) else math.inf
        d_abs = max(d_abs, d)
        d_rel = max(d_rel, d / max(abs(x), abs(y)) if math.isfinite(d) else math.inf)
    return d_abs, d_rel


def compare_artifacts(lines, other, here: Path, there: Path) -> list[str]:
    """Differences of the artifacts of every job that passes on both checkouts."""
    report, largest, jobs = [], {}, 0
    for mine, theirs in zip(lines, other):
        seed, job, code, _, missed = mine.split(maxsplit=4)
        if mine != theirs or code != "0" or missed != "-":
            continue
        jobs += 1
        for path in sorted(Path(here, seed, job).iterdir()):
            ours, others = numbers(path), numbers(Path(there, seed, job, path.name))
            for label in sorted(ours.keys() | others.keys()):
                xs, ys, name = ours.get(label, []), others.get(label, []), f"{path.name}:{label}"
                if len(xs) != len(ys):
                    report.append(f"{seed} {job} {name} has {len(xs)} | {len(ys)} values")
                    continue
                d_abs, d_rel = difference(xs, ys)
                if d_abs:
                    report.append(f"{seed} {job} {name} abs {d_abs:.3g} rel {d_rel:.3g}")
                worst = largest.get(name, (0.0, 0.0))
                largest[name] = (max(worst[0], d_abs), max(worst[1], d_rel))
    report.append(f"largest differences over {jobs} jobs that pass on both:")
    report += [f"  {name} abs {d_abs:.3g} rel {d_rel:.3g}"
               for name, (d_abs, d_rel) in sorted(largest.items())]
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("pole_scan", "decay_phases", "bath_ladder"))
    parser.add_argument("seeds", help="a seed or an inclusive range such as 1-10")
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--artifacts", action="store_true",
                        help="with --against, compare the files of the jobs that pass on both")
    parser.add_argument("--census", type=Path,
                        help="write this census file, or compare with it if it exists")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.artifacts and args.against is None:
        parser.error("--artifacts needs --against")
    if args.census and args.against:
        parser.error("--census compares with a file, not with --against")
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        here, there = args.out or Path(tmp, "here"), Path(tmp, "there")
        if args.against is not None:
            child = subprocess.Popen([sys.executable, __file__, args.workload, args.seeds,
                                      "--src", str(args.against / "src"), "--out", str(there)],
                                     stdout=subprocess.PIPE, text=True)
        lines = replay(args.src, args.workload, seeds, here)
        if args.census is not None:
            sys.exit(census(lines, args.census))
        if args.against is None:
            print("\n".join(lines))
            return
        other = child.communicate()[0].splitlines()
        if child.returncode:
            sys.exit(f"the replay of {args.against} failed")
        diffs = [f"{a} | {b}" for a, b in zip(lines, other) if a != b]
        print("\n".join(diffs) or f"{len(lines)} jobs, no difference")
        if args.artifacts:
            print("\n".join(compare_artifacts(lines, other, here, there)))
    sys.exit(1 if diffs or len(lines) != len(other) else 0)


if __name__ == "__main__":
    main()
