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


def test_criterion_2_makes_one_l_call_per_character(monkeypatch):
    # each of the 79 primitive characters mod 3..20 is evaluated at all 100
    # points in one batched call
    sizes = []
    real = acceptance.lfengine.dirichlet_l

    def counted(s, chr, deriv=0):
        sizes.append(len(s))
        return real(s, chr, deriv)

    monkeypatch.setattr(acceptance.lfengine, "dirichlet_l", counted)
    assert acceptance.criterion_2().passed
    assert sizes == [acceptance._C2_POINTS] * 79
