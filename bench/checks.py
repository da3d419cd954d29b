"""Correctness checks on each job's artifacts, at the repo's test tolerances.

Each check returns None when the output passes, or the name of the check it
missed.  Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ALPHA_TOL = 1e-12       # |alpha_II(z0)|, test_criterion_02_pole_residual_and_oracle
SUM_RULE_TOL = 1e-6     # test_criterion_01_sum_rule
DUAL_TOL = 1e-6         # test_criterion_03_dual_method
RATE_TOL = 1e-6         # golden-rule rate vs closed form, test_criterion_08
TRACE_TOL = 1e-12       # test_criterion_09_density_matrix
DET_TOL = 1e-12
ORACLE_TOP_TOL = 1e-3   # test_criterion_04_oracle_equivalence


class Checker:
    """Runs the per-job checks; holds the model-level results it reuses."""

    def __init__(self, ob):
        self.ob = ob
        self.quad = ob.QuadConfig()
        self._sum_rule = {}

    def _model(self, params):
        return self.ob.build_model(params["omega"], params["lambda"], params["exponent"],
                                   params["cutoff"], params.get("prefactor", 1.0))

    def check(self, job, out: Path):
        return getattr(self, "_" + job.command)(job.params, out)

    def _pole(self, params, out):
        report = json.loads((out / "pole.json").read_text())
        z0 = complex(report["z0_re"], report["z0_im"])
        if not z0.imag < 0:
            return "pole_lower_half_plane"
        ob = self.ob
        value = ob.alpha(self._model(params), ob.SheetPoint(z0, ob.Sheet.SECOND_II), self.quad)
        return None if abs(value) < ALPHA_TOL else "alpha_residual"

    def _sweep(self, params, out):
        report = json.loads((out / "sweep.json").read_text())
        for rate in report["rates"]:
            if not abs(rate["gamma_golden_rule"] - rate["gamma_closed_form"]) < RATE_TOL:
                return "golden_rule_closed_form"
        if params["omega"] < 1.0 and report["ordering_decreasing_in_exponent"] is not True:
            return "rate_ordering"
        return None

    def _survival(self, params, out):
        report = json.loads((out / "survival.json").read_text())
        if not report["dual_method_sup"] < DUAL_TOL:
            return "dual_method_sup"
        key = tuple(sorted(params.items()))
        if key not in self._sum_rule:
            self._sum_rule[key] = self.ob.sum_rule(self._model(params), self.quad)
        return None if abs(self._sum_rule[key] - 1.0) < SUM_RULE_TOL else "sum_rule"

    def _density(self, params, out):
        with (out / "density.csv").open() as fh:
            for row in csv.DictReader(fh):
                r11, r00 = float(row["rho11"]), float(row["rho00"])
                re, im = float(row["re_rho10"]), float(row["im_rho10"])
                if not abs(r11 + r00 - 1.0) < TRACE_TOL:
                    return "density_trace"
                if not r11 * r00 - (re * re + im * im) >= -DET_TOL:
                    return "density_positivity"
        return None

    def _oracle(self, params, out):
        # per-rung outputs are checked together by oracle_ladder
        return None


def oracle_ladder(rungs):
    """Check the uniform ladder of one pass.

    ``rungs`` maps N to max_abs_dP for the uniform rungs that completed.
    Returns {N: check name} for the rungs that miss: the deviation must fall
    strictly from rung to rung and the top rung must stay below 1e-3.
    """
    missed = {}
    ns = sorted(rungs)
    for lo, hi in zip(ns, ns[1:]):
        if not rungs[hi] < rungs[lo]:
            missed[hi] = "oracle_monotone"
    if ns and not rungs[ns[-1]] < ORACLE_TOP_TOL:
        missed[ns[-1]] = "oracle_top_rung"
    return missed
