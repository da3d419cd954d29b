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


def test_oracle_builds_one_spectral_table(monkeypatch, tmp_path, capsys):
    # the table for the widest window serves every rung of the ladder
    tracer = _traced_run(monkeypatch, tmp_path, capsys,
                         ["oracle", "--override", "oracle_n=200,400,800"])
    assert tracer.counts["tables.spectral_builds"] == 1
    assert tracer.counts["oracle.modes"] == 1400
