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


# the default vacuum_bilinears call's signed sums and zero-point energy
# reach this report, its only caller outside the tests and the benchmark
_MOMENTUM_REPORT = (
    '[classical crossed fields]\n'
    '  (eps mu - 1) E x B   z:  3.318023e-12\n'
    '  E x (chi^T E)        z:  2.654419e-16\n'
    '  -B x (chi B)         z:  2.654419e-16\n'
    '  mu-transform term    z: -2.212016e-16\n'
    '  v_z                   :  3.318333e-12 cm/s\n'
    '  transverse residual   :  0.000000e+00\n'
    '  correction/others     :  6.665600e-05\n'
    '\n'
    '  Lagrangian consistency residual: 4.930e-32\n'
    '\n'
    '[vacuum expectation, 560 modes]\n'
    '  (eps mu - 1) E x B   z:  0.000000e+00\n'
    '  E x (chi^T E)        z:  9.968793e-25\n'
    '  -B x (chi B)         z:  2.242978e-24\n'
    '  mu-transform term    z: -0.000000e+00\n'
    '  v_z                   :  3.239858e-24 cm/s\n'
    '  transverse residual   :  0.000000e+00\n'
    '  correction/others     :  0.000000e+00\n'
    '\n'
    '  zero-point energy density: 4.482853e-10 erg/cm^3\n'
)


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
    if script == "momentum_report.py":
        assert result.stdout == _MOMENTUM_REPORT


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
