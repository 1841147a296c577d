"""Integration: every example script runs end-to-end, and the CLI works."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "em3d_scaling.py",
        "water_md.py",
        "lu_solver.py",
        "task_farm.py",
        "collectives.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"


def test_cli_table1(capsys):
    from repro.experiments.cli import main

    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "CC++ runtime" in out


def test_cli_entrypoint_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "run", "table1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "Table 1" in result.stdout


def test_cli_rejects_unknown_artifact():
    from repro.experiments.cli import main

    with pytest.raises(SystemExit):
        main(["run", "figure7"])
