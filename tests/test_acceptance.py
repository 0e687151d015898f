"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with -s (or look at captured stdout) to see the per-criterion lines.
"""

import pytest

from lcrit import acceptance


@pytest.fixture(scope="module")
def criterion_2_run():
    """Criterion 2, run once for both of its tests: its result and the
    number of points of each dirichlet_l call it made."""
    sizes = []
    real = acceptance.lfengine.dirichlet_l

    def counted(s, chr, deriv=0):
        sizes.append(len(s))
        return real(s, chr, deriv)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance.lfengine, "dirichlet_l", counted)
        return acceptance.criterion_2(), sizes


@pytest.mark.parametrize(
    "criterion",
    acceptance.ALL_CRITERIA,
    ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA],
)
def test_criterion(criterion, request):
    if criterion is acceptance.criterion_2:
        result = request.getfixturevalue("criterion_2_run")[0]
    else:
        result = criterion()
    print(result.line())
    assert type(result.passed) is bool
    assert result.passed, result.line()


def test_criterion_2_makes_one_l_call_per_character(criterion_2_run):
    # each of the 79 primitive characters mod 3..20 is evaluated at all 100
    # points in one batched call
    result, sizes = criterion_2_run
    assert result.passed
    assert sizes == [acceptance._C2_POINTS] * 79
