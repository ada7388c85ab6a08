"""The mutant table of tests/mutants.py still fits today's source."""

from conftest import ROOT
from mutants import MUTANTS, occurrences


def test_each_mutant_anchors_once_and_names_existing_tests():
    for m in MUTANTS:
        assert occurrences(m) == 1, (m.name, m.path, m.old)
        for path in m.tests:
            assert (ROOT / path).is_file(), (m.name, path)
