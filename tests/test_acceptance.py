"""Acceptance checks: one numbered pass/fail criterion per test.

Each test runs one seeded suite from holesandwich.verify and prints its
summary line, so `pytest -v tests/test_acceptance.py` shows exactly one
pass/fail line per criterion.
"""

import pytest

from holesandwich.verify import SUITES, run_suite

CRITERION_NUMBERS = {name: i for i, name in enumerate(SUITES, start=1)}


@pytest.mark.parametrize("name", list(SUITES), ids=list(SUITES))
def test_criterion(name):
    result = run_suite(name)
    line = "[%s] %d %s: %s" % ("PASS" if result.passed else "FAIL",
                               result.number, result.name, result.detail)
    print(line)
    assert result.number == CRITERION_NUMBERS[name]
    assert result.name == name
    assert result.passed, line
