"""The example scripts and the README quick tour run to completion, and
the README's vacuum-sweep example is what the CLI writes."""

import csv
import io
import re
import subprocess
import sys

import pytest

from conftest import ROOT, src_env
from vacmom import cli


@pytest.mark.parametrize("script", ["expansion_order_scan.py", "momentum_report.py"])
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


def test_readme_vacuum_sweep_example_is_what_the_cli_writes(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    config, table = re.search(
        r"With this `uv.json`,\n\n```json\n(.*?)^```$.*?^```\n(.*?)^```$",
        readme,
        re.DOTALL | re.MULTILINE,
    ).groups()
    path = tmp_path / "uv.json"
    path.write_text(config, encoding="utf-8")
    assert cli.main(["vacuum-sweep", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    header, *lines = table.splitlines()
    assert [",".join(row[c] for c in header.split(",")) for row in rows] == lines
