import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from lcrit import lfengine as lf
from lcrit.characters import enumerate_characters


def test_bernoulli_table_matches_sympy():
    expect = [float(sympy.bernoulli(2 * k)) / math.factorial(2 * k) for k in range(64)]
    assert lf._BK == expect


def test_zeta_two_exact():
    ev = lf.zeta(2.0 + 0j)
    assert abs(ev.value - math.pi**2 / 6) <= max(ev.error_radius, 1e-14)


def test_zeta_matches_mpmath_random_points():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = complex(rng.uniform(0.2, 5.0), rng.uniform(-40.0, 40.0))
        ev = lf.zeta(s)
        ref = complex(mp.zeta(mp.mpc(s)))
        assert abs(ev.value - ref) <= ev.error_radius + 1e-11 * (1 + abs(ref))


def test_zeta_prime_matches_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(15):
        s = complex(rng.uniform(0.5, 4.0), rng.uniform(-30.0, 30.0))
        ev = lf.zeta_prime(s)
        ref = complex(mp.zeta(mp.mpc(s), derivative=1))
        assert abs(ev.value - ref) <= ev.error_radius + 1e-10 * (1 + abs(ref))


def test_zeta_second_vs_finite_difference():
    s = 2.3 + 4.0j
    h = 1e-5
    fd = (lf.zeta_prime(s + h).value - lf.zeta_prime(s - h).value) / (2 * h)
    assert abs(lf.zeta_second(s).value - fd) < 1e-8


def test_zeta_derivatives_is_one_pass_of_zeta_prime_and_second():
    for s in (2.3 + 4.0j, 0.5 + 14.1j, 1.1 - 0.05j, 3.0 + 400.0j):
        assert lf.zeta_orders(s, 2) == [lf.zeta(s), lf.zeta_prime(s), lf.zeta_second(s)]
    with pytest.raises(lf.ZetaPoleError):
        lf.zeta_orders(1.0 + 0j, 2)


def _r_mp(s, a, d):
    """R^(d)(s, a) = zeta^(d)(s, a) - (-1)^d d!/(s-1)^(d+1) in mpmath."""
    ms = mp.mpc(s.real, s.imag)
    return mp.zeta(ms, mp.mpf(a), derivative=d) - (-1) ** d * mp.factorial(d) / (ms - 1) ** (d + 1)


_OFF_AXIS = st.builds(complex, st.floats(-0.8, 6.0), st.floats(-500.0, 500.0))
# |s - 1| < 0.25 takes the eps-series branch of the pole part
_NEAR_ONE = st.builds(lambda r, th: 1 + cmath.rect(r, th),
                      st.floats(0.01, 0.2499), st.floats(0.0, 2 * math.pi))


@pytest.mark.xfail(strict=True, reason=(
    "the radius's rounding term 1e-15*|sum| omits the phase error "
    "eps*|s|*log(N+a) per main-sum term and uses |sum| for the sum of |terms|; "
    "see ROADMAP D5"))
@given(s=st.one_of(_OFF_AXIS, _NEAR_ONE), a=st.floats(1e-3, 1.0), deriv=st.integers(0, 2))
@example(s=0.5 + 200j, a=0.5, deriv=0)  # 7.5x over the radius, so the xfail never hinges on a draw
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.generate))
def test_hurwitz_regularized_within_error_radius(s, a, deriv):
    assume(abs(s - 1) >= 0.01)  # the mpmath reference subtracts the pole
    ev = lf._hurwitz_reg(s, [a], deriv)[0][deriv]
    with mp.workdps(40):
        err = float(abs(mp.mpc(ev.value.real, ev.value.imag) - _r_mp(s, a, deriv)))
    assert err <= ev.error_radius


def test_zeta_at_zero():
    # P_k(s) has the factor s; its derivatives come without dividing by s
    assert lf.zeta(0j).value == pytest.approx(-0.5, abs=1e-13)
    assert lf.zeta_prime(0j).value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_pole_guard():
    with pytest.raises(lf.ZetaPoleError):
        lf.zeta(1.0 + 0j)
    with pytest.raises(lf.ZetaPoleError):
        lf.zeta(1.0 + 1e-14j)


def test_hurwitz_regularized_matches_mpmath():
    # 0.9+0.1j takes the eps-series branch
    for s in (2.5 + 3.0j, 0.7 - 11.0j, 4.0 + 0j, 0.9 + 0.1j, 1.5 + 300.0j):
        for a in (0.2, 0.5, 0.9, 1.0):
            for d in range(3):
                ev = lf._hurwitz_reg(s, [a], d)[0][d]
                ref = complex(_r_mp(s, a, d))
                assert abs(ev.value - ref) <= ev.error_radius + 1e-11 * (1 + abs(ref))


def test_hurwitz_regularized_finite_at_one():
    # the pole is subtracted: R(s, 1) -> -euler_gamma * (-1)... value at s = 1
    ev = lf._hurwitz_reg(1.0 + 0j, [1.0], 0)[0][0]
    # lim_{s->1} zeta(s) - 1/(s-1) = euler gamma
    assert ev.value == pytest.approx(0.5772156649015329, abs=1e-12)


@pytest.mark.parametrize("s", [2.5 + 3.0j, 0.9 + 0.1j, 0.5 + 1e4j, 1.0 + 0j])
def test_hurwitz_reg_batch_matches_single_shifts(s):
    # 0.9+0.1j and 1 take the eps-series pole branch, the others the closed form
    shifts = [1 / 7, 0.2, 0.5, 6 / 7, 1.0]
    for d in range(3):
        batch = lf._hurwitz_reg(s, shifts, d)
        assert batch == [lf._hurwitz_reg(s, [a], d)[0] for a in shifts]
        assert [len(orders) for orders in batch] == [d + 1] * len(shifts)


# one batch with both pole branches, s = 0, sigma < 0 and cutoffs N = 50 .. 3353
_BATCH = np.array(
    [0j, 0.9 + 0.1j, 1.2 - 0.05j, 1.0 + 0.2j, 0.8 + 0j, 1.0 + 0.249j, 1.1 + 0.1j,
     -0.5 + 3j, -0.85 - 20j, 0.5 + 14.134725j, 2.5 + 3j, 4.0 + 0j, 9.9 - 1j,
     0.5 + 149.5j, 0.5 + 151j, 3.0 - 400j, -0.5 + 1234.5j, 2.0 - 5000j, 0.5 + 9999.5j]
    + [complex(sig, t) for sig in (-0.85, 0.25, 1.5, 6.0) for t in (-7.5, 33.3, 170.0, 2e3)])


def test_zeta_batch_matches_scalar_calls():
    # a batch rounds like numpy, one point like CPython: values agree to
    # 8 ulps of |zeta^(d)| + sum_{n<=N} n^-sigma log^d n (the scale of the
    # terms that cancel), radii to 4 ulps
    eps = np.finfo(float).eps
    batch = lf.zeta_orders(_BATCH, 2)
    for k, s in enumerate(_BATCH.tolist()):
        n = np.arange(1.0, lf._cutoff(s.imag) + 1)
        for d, one in enumerate(lf.zeta_orders(s, 2)):
            assert isinstance(one.value, complex)
            mass = float(np.sum(n ** -s.real * np.log(n) ** d))
            assert abs(batch[d].value[k] - one.value) <= 8 * eps * (abs(one.value) + mass)
            assert abs(batch[d].error_radius[k] - one.error_radius) <= 4 * eps * one.error_radius


def test_zeta_batch_point_is_independent_of_its_batch(monkeypatch):
    # alone, inside the whole batch, or in sub-batches of two points: the same bits
    batch = lf.zeta_orders(_BATCH, 2)
    monkeypatch.setattr(lf, "_BATCH_TERMS", 2 * lf.EULER_MACLAURIN_CUTOFF)
    for parts in ([_BATCH[k:k + 1] for k in range(len(_BATCH))], [_BATCH]):
        for orders, whole in zip(zip(*(lf.zeta_orders(p, 2) for p in parts)), batch):
            assert np.array_equal(np.concatenate([o.value for o in orders]), whole.value)
            assert np.array_equal(np.concatenate([o.error_radius for o in orders]),
                                  whole.error_radius)
    with pytest.raises(lf.ZetaPoleError):
        lf.zeta_orders(np.array([2.0 + 0j, 1.0 + 0j]), 1)


def test_dirichlet_l_is_one_hurwitz_call(monkeypatch):
    # the s-only Bernoulli factors are built once per evaluation; the main
    # sum still runs once per residue prime to q
    counts = dict.fromkeys(("reg", "main"), 0)
    real_reg, real_main = lf._hurwitz_reg, lf.kernels.hurwitz_main_sum

    def reg(*args):
        counts["reg"] += 1
        return real_reg(*args)

    def main(*args):
        counts["main"] += 1
        return real_main(*args)

    monkeypatch.setattr(lf, "_hurwitz_reg", reg)
    monkeypatch.setattr(lf.kernels, "hurwitz_main_sum", main)
    for q, phi in ((5, 4), (8, 4), (11, 10), (12, 4)):
        chr = enumerate_characters(q)[1]
        for deriv in (0, 1):
            counts.update(reg=0, main=0)
            lf.dirichlet_l(1.0 + 10.0j, chr, deriv=deriv)
            assert counts == {"reg": 1, "main": phi}
        counts.update(reg=0, main=0)
        lf.l_log_derivative(1.0 + 0j, chr)
        assert counts == {"reg": 1, "main": phi}


def test_dirichlet_l_has_no_second_derivative():
    with pytest.raises(ValueError, match="deriv must be 0 or 1"):
        lf.dirichlet_l(1.0 + 10.0j, enumerate_characters(5)[1], deriv=2)


@pytest.mark.parametrize("q,label", [(5, 1), (5, 2), (7, 3), (8, 2), (11, 4)])
def test_dirichlet_l_matches_mpmath(q, label):
    chr = enumerate_characters(q)[label]
    for s in (2.0 + 3.0j, 0.8 - 7.0j, 1.5 + 21.0j, 1.0 + 0.5j):
        ev = lf.dirichlet_l(s, chr)
        ref = complex(lf.dirichlet_l_mp(s, chr))
        assert abs(ev.value - ref) <= ev.error_radius + 1e-10 * (1 + abs(ref))


def test_dirichlet_l_continuous_through_one():
    # the pole terms cancel for non-principal chi; s = 1 is a regular point
    chr = enumerate_characters(5)[1]
    at_one = lf.dirichlet_l(1.0 + 0j, chr).value
    h = 1e-6
    nearby = (lf.dirichlet_l(1.0 + h, chr).value + lf.dirichlet_l(1.0 - h, chr).value) / 2
    assert abs(at_one - nearby) < 1e-9


def test_dirichlet_l_prime_vs_finite_difference():
    chr = enumerate_characters(5)[1]
    s = 1.2 + 2.0j
    h = 1e-5
    fd = (lf.dirichlet_l(s + h, chr).value - lf.dirichlet_l(s - h, chr).value) / (2 * h)
    assert abs(lf.dirichlet_l(s, chr, deriv=1).value - fd) < 1e-8


def test_principal_characters_rejected():
    chr0 = enumerate_characters(5)[0]
    with pytest.raises(ValueError):
        lf.dirichlet_l(1.0 + 0j, chr0)


def test_log_l_exponentiates_back():
    chr = enumerate_characters(7)[1]
    for s in (1.0 + 5.0j, 1.3 - 9.0j, 2.0 + 0j):
        lv = lf.log_l(s, chr)
        direct = lf.dirichlet_l(s, chr).value
        assert abs(cmath.exp(lv.value) - direct) < 1e-9 * (1 + abs(direct))


def test_log_l_branch_continuity():
    # moving slowly along a vertical line never jumps by ~2 pi
    chr = enumerate_characters(5)[1]
    ts = np.linspace(2.0, 8.0, 61)
    vals = [lf.log_l(complex(1.0, t), chr).value for t in ts]
    steps = np.abs(np.diff(vals))
    assert steps.max() < 1.0


def test_euler_product_consistency_sigma_3(tbl):
    # log L(3) vs the prime sum over the full table
    chr = enumerate_characters(5)[1]
    lv = lf.log_l(3.0 + 0j, chr)
    truncated = lf.log_l_truncated(3.0 + 0j, chr, float(tbl.limit), tbl)
    assert abs(lv.value - truncated) < 1e-6


def test_truncated_log_l_defect_decays(tbl):
    chr = enumerate_characters(5)[1]
    d1 = lf.log_l_defect(1.0 + 50.0j, chr, 1e3, tbl)
    d2 = lf.log_l_defect(1.0 + 50.0j, chr, 1e5, tbl)
    assert d2 < d1


def test_log_derivative_consistency():
    chr = enumerate_characters(5)[1]
    s = 1.4 + 3.0j
    ratio = lf.dirichlet_l(s, chr, deriv=1).value / lf.dirichlet_l(s, chr).value
    assert abs(lf.l_log_derivative(s, chr).value - ratio) < 1e-10


@given(sr=st.floats(1.1, 3.0), si=st.floats(-15.0, 15.0))
@settings(max_examples=20, deadline=None)
def test_conjugation_symmetry(sr, si):
    # L(conj s, conj chi) = conj L(s, chi)
    chars = enumerate_characters(5)
    chr, chrbar = chars[1], chars[3]
    s = complex(sr, si)
    a = lf.dirichlet_l(s, chr).value
    b = lf.dirichlet_l(s.conjugate(), chrbar).value
    assert abs(b - a.conjugate()) < 1e-10 * (1 + abs(a))
