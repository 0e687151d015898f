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


def test_entire_zeta_prime_matches_mpmath():
    # g = (s-1)^2 zeta' and g' = 2(s-1) zeta' + (s-1)^2 zeta'' from mpmath at
    # 40 digits, relative: the worst error measured was 3e-11 at sigma = -0.85
    # and 2e-14 right of sigma = 1; the radius is a heuristic (see the xfail
    # below), so it is not checked
    assert lf.entire_zeta_prime(1.0 + 0j, 1) == [lf.ComplexEval(-1.0 + 0j, 0.0),
                                                  lf.ComplexEval(0j, 0.0)]
    near_one = [1 + cmath.rect(r, th) for r in (1e-8, 1e-3, 0.05, 0.2, 0.2499)
                for th in (0.0, 1.0, 2.5, 4.0)]
    grid = [complex(sig, t) for sig in (-0.85, -0.5, 0.0, 0.5, 0.95, 1.1, 2.0, 6.0, 9.5)
            for t in (0.0, 0.05, 1.0, 14.1347, 23.3, 77.7, -80.0)]
    for s in near_one + grid:
        got = [ev.value for ev in lf.entire_zeta_prime(s, 1)]
        assert got[0] == lf.entire_zeta_prime(s, 0)[0].value
        with mp.workdps(40):
            ms = mp.mpc(s.real, s.imag)
            z1, z2 = mp.zeta(ms, derivative=1), mp.zeta(ms, derivative=2)
            want = [complex((ms - 1) ** 2 * z1), complex(2 * (ms - 1) * z1 + (ms - 1) ** 2 * z2)]
        tol = 1e-13 if s.real >= 1 else 1e-10
        for g, w in zip(got, want):
            assert abs(g - w) <= tol * abs(w)


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


def _terms(s, m, d):
    """The mass of the terms of zeta^(d) or L^(d): m[d]."""
    return m[d]


def _entire_terms(s, m, d):
    """The mass of g = (s-1)^2 R' - 1 (d = 0) or g' = 2(s-1) R' + (s-1)^2 R''."""
    r = abs(s - 1)
    return r * r * m[1] if d == 0 else r * (2 * m[1] + r * m[2])


# zeta, zeta', zeta'' on _BATCH (q = 1), (s-1)^2 zeta' and its derivative on
# _BATCH and s = 1, or L, L' for one odd chi mod q = 5, 7, 8 or 11 (so
# L(0, chi) != 0) on _BATCH and s = 1; L's main sums run over n = qk + a <= qN
_ORDERS = {"zeta": (_BATCH, lambda s: lf.zeta_orders(s, 2), 1, _terms),
           "entire-zeta-prime": (np.append(_BATCH, 1 + 0j),
                                 lambda s: lf.entire_zeta_prime(s, 1), 1, _entire_terms)} | {
    f"L-mod-{q}": (np.append(_BATCH, 1 + 0j),
                   lambda s, chr=enumerate_characters(q)[label]: lf._l_orders(s, chr, 1), q,
                   _terms)
    for q, label in ((5, 1), (7, 3), (8, 1), (11, 1))}


@pytest.mark.parametrize("points, orders, q, terms", _ORDERS.values(), ids=_ORDERS)
def test_batch_matches_scalar_calls(points, orders, q, terms):
    # a batch rounds like numpy, one point like CPython: values agree to
    # 8 ulps of |value| + the mass of the terms that cancel, built from
    # m[j] = sum_{n<=qN} n^-sigma log^j n; radii to 4 ulps
    eps = np.finfo(float).eps
    batch = orders(points)
    for k, s in enumerate(points.tolist()):
        n = np.arange(1.0, q * lf._cutoff(s.imag) + 1)
        m = [float(np.sum(n ** -s.real * np.log(n) ** j)) for j in range(3)]
        for d, one in enumerate(orders(s)):
            assert isinstance(one.value, complex)
            assert abs(batch[d].value[k] - one.value) <= 8 * eps * (abs(one.value)
                                                                   + terms(s, m, d))
            assert abs(batch[d].error_radius[k] - one.error_radius) <= 4 * eps * one.error_radius


@pytest.mark.parametrize("points, orders, q, terms", _ORDERS.values(), ids=_ORDERS)
def test_batch_point_is_independent_of_its_batch(points, orders, q, terms, monkeypatch):
    # alone, inside the whole batch, or in sub-batches of two points: the same bits
    batch = orders(points)
    monkeypatch.setattr(lf, "_BATCH_TERMS", 2 * lf.EULER_MACLAURIN_CUTOFF)
    for parts in ([points[k:k + 1] for k in range(len(points))], [points]):
        for orders_k, whole in zip(zip(*(orders(p) for p in parts)), batch):
            assert np.array_equal(np.concatenate([o.value for o in orders_k]), whole.value)
            assert np.array_equal(np.concatenate([o.error_radius for o in orders_k]),
                                  whole.error_radius)


def test_batch_raises_at_a_pole_or_a_zero_of_l():
    with pytest.raises(lf.ZetaPoleError):
        lf.zeta_orders(np.array([2.0 + 0j, 1.0 + 0j]), 1)
    # L(0, chi) = 0 exactly for an even chi, so L'/L is undefined there
    even = enumerate_characters(5)[2]
    assert lf.dirichlet_l(0j, even).value == 0.0
    with pytest.raises(lf.ZetaPoleError):
        lf.l_log_derivative(np.array([2.0 + 0j, 0j]), even)
    odd = enumerate_characters(5)[1]
    lv, lp = lf._l_orders(_BATCH, odd, 1)
    assert np.array_equal(lf.l_log_derivative(_BATCH, odd).value, lp.value / lv.value)


def test_dirichlet_l_is_one_hurwitz_call(monkeypatch):
    # the s-only Bernoulli factors are built once per evaluation; the main
    # sum still runs once per residue prime to q, for one point or a batch
    # of one cutoff and pole branch
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
    batch = np.linspace(0.5, 3.0, 100) + 10.0j
    for q, phi in ((5, 4), (8, 4), (11, 10), (12, 4)):
        chr = enumerate_characters(q)[1]
        for s in (1.0 + 10.0j, batch):
            for deriv in (0, 1):
                counts.update(reg=0, main=0)
                lf.dirichlet_l(s, chr, deriv=deriv)
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


def _segment(err):
    """The segment a ZeroOnPath message ends with."""
    return [complex(z) for z in str(err).rsplit(" ", 1)[1].split("..")]


def test_log_change_winds_once_around_a_simple_zero():
    def f(s):
        return lf.ComplexEval(s - (0.3 + 0.2j), np.zeros(len(s)))

    square = [0j, 1 + 0j, 1 + 1j, 1j, 0j]
    change = lf.log_change(f, square, 0.5, "f")
    assert abs(change.value - 2j * math.pi) < 1e-12 and change.error_radius == 0.0
    # one sample lands on the zero: the step ending there is named
    with pytest.raises(lf.ZeroOnPath, match=r"f may vanish on the path segment") as info:
        lf.log_change(f, [0.2j, 0.4 + 0.2j], 0.1, "f")
    assert _segment(info.value) == [0.2 + 0.2j, 0.30000000000000004 + 0.2j]


# L(s, chi_5,1) vanishes at 1/2 + 8.457229174423231 i (checked by mp.findroot below)
_T_ZERO = 8.457229174423231


def test_log_l_refuses_a_path_through_a_zero_of_l():
    chr = enumerate_characters(5)[1]
    with mp.workdps(30):
        rho = complex(mp.findroot(lambda z: lf.dirichlet_l_mp(z, chr), mp.mpc(0.5, _T_ZERO)))
    assert abs(rho - complex(0.5, _T_ZERO)) < 1e-12
    with pytest.raises(lf.ZeroOnPath, match=r"L\(s, chi_5,1\) may vanish on the path segment") \
            as info:
        lf.log_l(complex(0.3, _T_ZERO), chr)
    a, b = _segment(info.value)
    assert abs(a - rho) + abs(rho - b) <= abs(b - a) + 1e-9  # rho on [a, b]


def test_log_l_refuses_samples_its_radius_cannot_tell_from_zero():
    # left of sigma = -9.5 at t = 10 L's radius is over half of |L|: the
    # continued branch is no longer known, so the walk stops there
    chr = enumerate_characters(5)[1]
    with pytest.raises(lf.ZeroOnPath, match=r"segment \(-9\.5\+10j\)\.\.\(-9\.75\+10j\)"):
        lf.log_l(complex(-10.0, 10.0), chr)
    s = complex(-5.0, 10.0)
    lv = lf.log_l(s, chr)
    ref = complex(lf.dirichlet_l_mp(s, chr))
    assert abs(cmath.exp(lv.value) / ref - 1) <= lv.error_radius


@pytest.mark.parametrize("s", [1.0 + 1e3j, 0.5 + 20.0j])
def test_log_l_is_the_anchor_and_one_batched_call(s, monkeypatch):
    chr = enumerate_characters(5)[1]
    calls = []
    real = lf.dirichlet_l

    def counted(z, chr, deriv=0):
        calls.append(np.size(z))
        return real(z, chr, deriv)

    monkeypatch.setattr(lf, "dirichlet_l", counted)
    lv = lf.log_l(s, chr)
    assert len(calls) == 2 and calls[0] == 1
    assert type(lv.value) is complex and type(lv.error_radius) is float


@pytest.mark.parametrize("dt", [1e-5, 1e-7, -1e-5])
def test_log_l_near_a_zero_matches_a_fine_continuation(dt):
    # the path passes dt from the zero of L at 1/2 + _T_ZERO i; a 20,000-step
    # continuation never needs a phase jump of pi/2 or more to be halved
    chr = enumerate_characters(5)[1]
    s = complex(0.3, _T_ZERO + dt)
    anchor = complex(lf.BRANCH_ANCHOR_SIGMA, s.imag)
    vals = lf.dirichlet_l(anchor + (s - anchor) * np.arange(20001) / 20000, chr).value
    ref = cmath.log(vals[0]) + np.log(vals[1:] / vals[:-1]).sum()
    assert abs(lf.log_l(s, chr).value - ref) < 1e-13


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
