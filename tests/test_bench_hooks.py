"""The benchmark tracer wraps oscbath names that must keep existing."""

from pathlib import Path

import numpy as np
import pytest

import oscbath._tables as tables
import oscbath.cli as cli
import oscbath.survival as survival
from oscbath.model import QuadConfig


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    before = (cli.oracle_amplitude, tables.pv_integral_many, tables.SpectralTable.amplitude)
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.oracle_amplitude is not before[0]
    finally:
        tracer.uninstall()
    assert (cli.oracle_amplitude, tables.pv_integral_many,
            tables.SpectralTable.amplitude) == before


def _spy(monkeypatch, name):
    """Record every table that ``survival.<name>`` builds."""
    built = []
    build = getattr(survival, name)

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(survival, name, spy)
    return built


def _traced_run(monkeypatch, tmp_path, capsys, argv):
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(repo / "bench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        tracer.job = argv[0]
        code = cli.main(argv + ["--config", str(repo / "configs" / "reference.cfg"),
                                "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    return tracer


def test_survival_builds_one_spectral_table(monkeypatch, tmp_path, capsys):
    # the Zeno numbers are read from the survival run's own spectral table
    tracer = _traced_run(monkeypatch, tmp_path, capsys, ["survival"])
    assert tracer.counts["tables.spectral_builds"] == 1


def test_survival_table_is_the_sum_rule_table(monkeypatch, tmp_path, capsys):
    # the table resolves the weight alone, so the survival run's table is the
    # one that sum_rule builds for t = 0
    tracer = _traced_run(monkeypatch, tmp_path, capsys, ["survival"])
    cfg = cli.build_runconfig(cli.parse_config_file(
        Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"))
    built = _spy(monkeypatch, "build_spectral_table")
    survival.sum_rule(cfg.decay().model, QuadConfig(cfg["truncation_multiple"]))
    assert tracer.counts["tables.spectral_nodes"] == built[0].nodes.size


# resonance searches, spectral tables and ray tables of each reference run
@pytest.mark.parametrize("command, searches, spectral, rays", [
    ("pole", 1, 0, 0), ("survival", 1, 1, 1), ("density", 1, 1, 0), ("sweep", 3, 0, 0)])
def test_traced_runs_keep_every_layer(monkeypatch, tmp_path, capsys, command, searches,
                                      spectral, rays):
    # the solver object calls each layer through the names the tracer wraps
    built = _spy(monkeypatch, "build_ray_table")
    tracer = _traced_run(monkeypatch, tmp_path, capsys, [command])
    assert tracer.counts["selfenergy.find_resonance_calls"] == searches
    assert tracer.counts.get("tables.spectral_builds", 0) == spectral
    assert len(built) == rays
    assert tracer.counts.get("tables.ray_nodes", 0) == sum(t.s_nodes.size for t in built)


def test_density_calls_each_solution_once(monkeypatch, tmp_path, capsys):
    # the exact and the closed-form matrices each come from one call over the
    # whole time grid, not one call per time
    tracer = _traced_run(monkeypatch, tmp_path, capsys, ["density"])
    assert tracer.counts["density.steps"] == 1
    assert [span[0] for span in tracer.spans].count("density.steps") == 2


def test_oracle_builds_one_spectral_table(monkeypatch, tmp_path, capsys):
    # the table for the widest window serves every rung of the ladder
    tracer = _traced_run(monkeypatch, tmp_path, capsys,
                         ["oracle", "--override", "oracle_n=200,400,800"])
    assert tracer.counts["tables.spectral_builds"] == 1
    assert tracer.counts["oracle.modes"] == 1400


def test_oracle_solves_each_rung_once_without_eigh(monkeypatch, tmp_path, capsys):
    # the bench attributes the eigensolve to DiscreteBath.eigensystem; the
    # package's secular solver never calls dense eigh
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    tracer = _traced_run(monkeypatch, tmp_path, capsys,
                         ["oracle", "--override", "oracle_n=500,1000"])
    assert [span[0] for span in tracer.spans].count("oracle.eigh") == 2
    assert tracer.counts["oracle.modes"] == 1500


def test_survival_pv_points_bounded(monkeypatch, tmp_path, capsys):
    # the table's principal values come from one vectorized call, one point
    # per outer table node; only the axis profile's root search and the
    # perturbative seed add points
    built = _spy(monkeypatch, "build_spectral_table")
    tracer = _traced_run(monkeypatch, tmp_path, capsys, ["survival"])
    (table,) = built
    assert table.nodes.size < tracer.counts["quadrature.pv_points"] <= table.nodes.size + 64
