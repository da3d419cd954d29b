"""The benchmark tracer wraps oscbath names that must keep existing."""

from pathlib import Path

import oscbath._tables as tables
import oscbath.cli as cli


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


def test_survival_builds_one_spectral_table(monkeypatch, tmp_path, capsys):
    # the Zeno numbers are read from the survival run's own spectral table
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(repo / "bench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        tracer.job = "survival"
        code = cli.main(["survival", "--config", str(repo / "configs" / "reference.cfg"),
                         "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["tables.spectral_builds"] == 1
