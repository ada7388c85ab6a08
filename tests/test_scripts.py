"""The example scripts run to completion with their default arguments."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize(
    "script", ["expansion_order_scan.py", "momentum_report.py", "vacuum_cutoff_scan.py"]
)
def test_script_runs_with_defaults(script):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
