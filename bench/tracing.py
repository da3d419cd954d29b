"""Spans and counts recorded around the calls into each oscbath layer.

The wrappers replace module-level names (and three methods) that the
CLI reaches, so no file of the package changes.  Spans stay in memory; self
time per span name is span time minus the time of its child spans.
"""

from __future__ import annotations

import time

import numpy as np


class Tracer:
    """In-memory span recorder.  ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, job id]
        self.counts = {}
        self.maxima = {}
        self.job = None       # id of the running job; None records nothing
        self._stack = []
        self._patched = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:  # outside a job, e.g. a correctness check
                return original(*args, **kwargs)
            result = tracer.span(name, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self):
        """Wrap the public names of each layer that the CLI reaches."""
        import oscbath._tables as tables
        import oscbath.cli as cli
        import oscbath.oracle as oracle
        import oscbath.selfenergy as selfenergy
        import oscbath.survival as survival

        def resonance(t, args, kwargs, res):
            t.count("selfenergy.find_resonance_calls")
            t.count("selfenergy.newton_iters", res.newton_iterations)

        def pv(t, args, kwargs, result):
            t.count("quadrature.pv_points", int(np.size(args[1])))

        def spectral_build(t, args, kwargs, table):
            t.count("tables.spectral_builds")
            t.count("tables.spectral_nodes", table.nodes.size)
            t.peak("tables.sum_defect_max", abs(table.sum_defect))

        def spectral_eval(t, args, kwargs, result):
            t.count("tables.spectral_exps", args[0].nodes.size * int(np.size(args[1])))

        def ray_build(t, args, kwargs, table):
            t.count("tables.ray_nodes", table.s_nodes.size)

        def ray_eval(t, args, kwargs, result):
            t.count("tables.ray_exps", args[0].s_nodes.size * int(np.size(args[1])))

        def bath(t, args, kwargs, result):
            n = result.frequencies.size
            t.count("oracle.modes", n)
            t.peak("oracle.dense_mb", 8.0 * (n + 1) ** 2 / 2**20)

        def rows(t, args, kwargs, result):
            t.count("cli.rows_written", len(args[2]))

        self._wrap(cli, "find_resonance", "selfenergy.find_resonance", resonance)
        self._wrap(cli, "perturbative_resonance", "selfenergy.perturbative")
        self._wrap(selfenergy, "perturbative_resonance", "selfenergy.perturbative")
        self._wrap(selfenergy, "adaptive_complex_quad", "quadrature.adaptive",
                   lambda t, a, k, r: t.count("quadrature.adaptive_calls"))
        self._wrap(selfenergy, "pv_integral_many", "quadrature.pv", pv)
        self._wrap(tables, "pv_integral_many", "quadrature.pv", pv)
        self._wrap(survival, "build_spectral_table", "tables.spectral_build", spectral_build)
        self._wrap(tables.SpectralTable, "amplitude", "tables.spectral_eval", spectral_eval)
        self._wrap(survival, "build_ray_table", "tables.ray_build", ray_build)
        self._wrap(tables.RayTable, "background", "tables.ray_eval", ray_eval)
        for name in ("zeno_slope", "exponential_rate_fit", "khalfin_exponent", "crossover_times"):
            self._wrap(cli, name, "survival.phase_fits")
        self._wrap(cli, "discretize", "oracle.discretize", bath)
        self._wrap(oracle.DiscreteBath, "eigensystem", "oracle.eigh")
        self._wrap(cli, "oracle_amplitude", "oracle.amplitude")
        self._wrap(cli, "reduced_density", "density.steps",
                   lambda t, a, k, r: t.count("density.steps"))
        self._wrap(cli, "lindblad_solution", "density.steps")
        self._wrap(cli, "write_csv", "cli.write", rows)
        self._wrap(cli, "write_json", "cli.write")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self):
        """Seconds per span name, each span minus the spans directly under it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out
