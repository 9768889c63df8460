"""Smoke tests: every example script runs to completion.

Each example is executed in-process via runpy with stdout captured; the
slow full-incident ones get short-circuit knobs where available.  These
tests are what keeps the README's "runnable examples" claim true.
"""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "sinfo" in out
    assert "finished: state=CD" in out


def test_deploy_software_stack(capsys):
    run_example("deploy_software_stack.py")
    out = capsys.readouterr().out
    assert "linux-sifive-u74mc" in out
    assert "quantum-espresso" in out
    assert "module load hpl/2.3" in out


def test_monitoring_dashboard(capsys):
    run_example("monitoring_dashboard.py")
    out = capsys.readouterr().out
    assert "instructions/s" in out
    assert "monitoring transport" in out


def test_power_characterization(capsys):
    run_example("power_characterization.py")
    out = capsys.readouterr().out
    assert "Table VI" in out
    assert "32.0%" in out           # leakage share


def test_cluster_operations(capsys):
    run_example("cluster_operations.py")
    out = capsys.readouterr().out
    assert "operator report" in out
    assert "utilisation" in out
    assert "Grafana dashboard export" in out


@pytest.mark.slow
def test_thermal_incident(capsys):
    run_example("thermal_incident.py")
    out = capsys.readouterr().out
    assert "trip at 107.0" in out
    assert "39" in out


@pytest.mark.slow
def test_reproduce_paper(tmp_path, capsys):
    run_example("reproduce_paper.py", [str(tmp_path / "EXPERIMENTS.md")])
    report = (tmp_path / "EXPERIMENTS.md").read_text()
    assert "Table VI" in report
    assert "Fig. 6" in report
    # The committed report is the reproduction's output contract: any
    # change to a simulated number must regenerate it in the same change.
    assert ((tmp_path / "EXPERIMENTS.md").read_bytes()
            == (REPO / "EXPERIMENTS.md").read_bytes())
