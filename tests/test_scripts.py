"""The example scripts and the README quick tour run to completion."""

import re
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


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    result = subprocess.run(
        [sys.executable, "-c", tour],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
