"""Seeded job lists for the benchmark workloads.

The program under test sees only the config files written from these jobs.

Models come from one sampler over the admissible space: the first points of
the unscrambled 4-d Halton sequence mapped onto (omega, cutoff, exponent,
lambda as a fraction of the positivity limit), each coordinate then moved by
a seeded relative jitter of at most ``JITTER``.  The fixed design spreads a
pass evenly over the space, including its known failing corners, and the
small jitter changes the inputs from seed to seed without changing how much
work a pass holds; unrestricted random draws would let one long-lived model
swing a pass by tens of percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pole_scan", "decay_phases", "bath_ladder")

OMEGA = (0.5, 2.0)          # log-uniform
CUTOFF = (2.0, 10.0)        # log-uniform
EXPONENT = (0.25, 3.0)
LAMBDA_FRACTION = 0.95      # lambda up to this share of the positivity limit
JITTER = 0.02

# Values of configs/reference.cfg; the oracle ladder and the warm-up run there.
REFERENCE = (("omega", 1.0), ("lambda", 0.1), ("exponent", 1.0), ("cutoff", 5.0),
             ("prefactor", 1.0))

# Jobs per pass.  "min" is the smallest run the benchmark's own tests use.
SIZES = {
    "full": {"pole": 96, "sweep": 4, "decay": 16,
             "uniform": (500, 1000, 2000, 4000), "gauss": (500, 1000, 2000)},
    "min": {"pole": 2, "sweep": 1, "decay": 2,
            "uniform": (100, 200), "gauss": (100,)},
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``oscbath <command> --config <file>``."""

    id: str
    command: str
    config: tuple  # ((key, value), ...) in file order

    @property
    def params(self) -> dict:
        return dict(self.config)

    def config_text(self) -> str:
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in self.config)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    return str(v)


def lambda_limit(omega: float, exponent: float, cutoff: float) -> float:
    """Coupling at which the stability margin omega - lam^2 int g2/w reaches 0."""
    return math.sqrt(omega / (0.5 * cutoff**exponent * math.gamma(exponent / 2.0)))


def halton(index: int, base: int) -> float:
    """Radical inverse of ``index`` in ``base``: one Halton coordinate."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _log_scale(u: float, lo_hi) -> float:
    lo, hi = lo_hi
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def sample_points(rng: np.random.Generator, n: int, start: int = 1) -> list[tuple]:
    """(omega, cutoff, exponent, lambda fraction) at Halton points
    start..start+n-1, each coordinate jittered by ``rng``."""
    points = []
    for i in range(start, start + n):
        u = [halton(i, b) for b in (2, 3, 5, 7)]
        j = 1.0 + rng.uniform(-JITTER, JITTER, 4)
        points.append((
            _log_scale(u[0], OMEGA) * float(j[0]),
            _log_scale(u[1], CUTOFF) * float(j[1]),
            min((EXPONENT[0] + u[2] * (EXPONENT[1] - EXPONENT[0])) * float(j[2]), EXPONENT[1]),
            min(LAMBDA_FRACTION * u[3] * float(j[3]), LAMBDA_FRACTION),
        ))
    return points


def model_config(omega, cutoff, exponent, frac) -> tuple:
    lam = frac * lambda_limit(omega, exponent, cutoff)
    return (("omega", omega), ("lambda", lam), ("exponent", exponent), ("cutoff", cutoff))


def pole_scan(rng: np.random.Generator, size: dict) -> list[Job]:
    jobs = [Job(f"pole{i:03d}", "pole", model_config(*p))
            for i, p in enumerate(sample_points(rng, size["pole"]))]
    # sweeps reuse the sampler for omega, cutoff and the coupling fraction;
    # omega < 1 keeps the CLI's rate-ordering check switched on
    for i, (omega, cutoff, _, frac) in enumerate(
            sample_points(rng, size["sweep"], start=size["pole"] + 1)):
        omega = min(omega, 0.95)
        exponents = tuple(sorted(n * (1.0 + float(rng.uniform(-JITTER, JITTER)))
                                 for n in (0.5, 1.0, 2.0)))
        lam = frac * min(lambda_limit(omega, n, cutoff) for n in exponents)
        jobs.append(Job(f"sweep{i:02d}", "sweep",
                        (("omega", omega), ("lambda", lam), ("cutoff", cutoff),
                         ("exponents", exponents))))
    return jobs


def decay_phases(rng: np.random.Generator, size: dict) -> list[Job]:
    jobs = []
    for i, point in enumerate(sample_points(rng, size["decay"])):
        model = model_config(*point)
        jobs.append(Job(f"survival{i:02d}", "survival", model))
        c11 = float(rng.uniform(0.0, 1.0))
        r = math.sqrt(c11 * (1.0 - c11)) * float(rng.uniform(0.0, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        state = (("c11", c11), ("re_c10", r * math.cos(phase)), ("im_c10", r * math.sin(phase)))
        jobs.append(Job(f"density{i:02d}", "density", model + state))
    return jobs


def bath_ladder(rng: np.random.Generator, size: dict) -> list[Job]:
    """One oracle rung per job at the reference model, in seeded order."""
    rungs = [("uniform", n) for n in size["uniform"]] + [("gauss", n) for n in size["gauss"]]
    jobs = [Job(f"oracle_{scheme}{n:05d}", "oracle",
                REFERENCE + (("oracle_n", n), ("oracle_scheme", scheme)))
            for scheme, n in rungs]
    return [jobs[i] for i in rng.permutation(len(jobs))]


def build_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    make = {"pole_scan": pole_scan, "decay_phases": decay_phases, "bath_ladder": bath_ladder}
    return make[workload](np.random.default_rng(seed), SIZES[size])


def warmup_jobs(workload: str) -> list[Job]:
    """Untimed jobs at the reference model, run once before timing starts."""
    if workload == "pole_scan":
        return [Job("warm_pole", "pole", REFERENCE),
                Job("warm_sweep", "sweep", REFERENCE + (("exponents", (0.5, 1.0, 2.0)),))]
    if workload == "decay_phases":
        return [Job("warm_survival", "survival", REFERENCE),
                Job("warm_density", "density", REFERENCE)]
    return [Job("warm_oracle", "oracle", REFERENCE + (("oracle_n", 200),))]
