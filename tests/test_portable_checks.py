"""The stdlib-only checks of tests/portable_checks.py, under this interpreter."""

import subprocess
import sys

from conftest import ROOT, src_env
from portable_checks import CHECKS


def test_portable_checks_pass_as_a_script():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "portable_checks.py")],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count(": ok\n") == len(CHECKS), result.stdout
