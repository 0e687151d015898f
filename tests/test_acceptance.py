"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with -s (or look at captured stdout) to see the per-criterion lines.
"""

import pytest

from lcrit import acceptance


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA],
)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert type(result.passed) is bool
    assert result.passed, result.line()
