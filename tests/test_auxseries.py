import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrit import auxseries as aux
from lcrit import kernels, lfengine
from lcrit import primesums as ps
from lcrit.characters import enumerate_characters


@pytest.fixture(scope="module")
def chr5():
    return enumerate_characters(5)[1]


@pytest.fixture(scope="module")
def scheme_b(chr5, tbl):
    return aux.make_scheme("B", chr5, 1e5, tbl, delta=0.75)


def test_params_validation(chr5):
    with pytest.raises(ValueError):
        aux.SchemeParams(x=1e5, delta=0.4, m=2.0, chr=chr5)
    with pytest.raises(ValueError):
        aux.SchemeParams(x=1e5, delta=0.75, m=0.5, chr=chr5)
    with pytest.raises(ValueError):
        aux.SchemeParams(x=20.0, delta=0.51, m=2.0, chr=chr5)  # x^eps <= q
    chr0 = enumerate_characters(5)[0]
    with pytest.raises(ValueError):
        aux.SchemeParams(x=1e5, delta=0.75, m=2.0, chr=chr0)


@given(delta=st.floats(0.501, 0.999))
@settings(max_examples=50, deadline=None)
def test_curvature_identity(delta):
    # 2 delta^2 - 1 - eps^2 = -2 (delta - 1)^2 with eps = 2 delta - 1
    eps = 2 * delta - 1
    curv = 2 * delta**2 - 1 - eps**2
    assert curv == pytest.approx(-2 * (delta - 1) ** 2, abs=1e-12)
    assert curv < 0


def test_breakpoints_ordered(chr5):
    pr = aux.SchemeParams(x=1e6, delta=0.75, m=3.0, chr=chr5)
    b1, b2, b3, b4 = pr.breakpoints()
    assert b1 < b2 < b3 < b4 == pr.x


@pytest.mark.parametrize("kind", aux.SCHEME_KINDS)
def test_weights_unimodular_off_ramified(kind, chr5, tbl):
    scheme = aux.make_scheme(kind, chr5, 1e5, tbl, delta=0.75)
    p = tbl.primes_upto(1e5)
    w = scheme.prime_weights(p)
    mag = np.abs(w)
    assert np.all((np.abs(mag - 1) < 1e-12) | (mag < 1e-12))
    # primes beyond x get zero weight
    beyond = scheme.prime_weights(np.array([1000003]))
    assert beyond[0] == 0


@pytest.mark.parametrize("kind", aux.SCHEME_KINDS)
def test_weight_angles_match_weights(kind, chr5, tbl):
    # the composite modulus 15 exercises the vectorised p | q mask at p = 3, 5;
    # every p | q lies below x^eps, so no weight vanishes and none is skipped
    p = tbl.primes_upto(1e4)
    for chr in (chr5, enumerate_characters(15)[1]):
        scheme = aux.make_scheme(kind, chr, 1e4, tbl, delta=0.75)
        w = scheme.prime_weights(p)
        for i, pi in enumerate(p):
            ang = scheme.prime_weight_angle(int(pi))
            expect = np.exp(2j * np.pi * float(ang))
            assert abs(w[i] - expect) < 1e-12


@pytest.mark.parametrize("kind", aux.SCHEME_KINDS)
def test_aux_series_matches_lambda_weighted_sum(kind, chr5, tbl):
    # the scheme's cached prime-power weights against the uncached route:
    # prime weights over the whole table, lifted inside lambda_weighted_sum
    scheme = aux.make_scheme(kind, chr5, 1e5, tbl, delta=0.75)
    over_log = kind in ("C", "Cprime")
    small = ps.sieve(10**5)
    # primes <= x differ from the real table's, so a vector built for another
    # table cannot give this table's value
    keep = small.primes != 7
    doctored = ps.PrimeTable(10**5, small.primes[keep])
    at_one, on_disc = {}, {}
    for name, t in (("1e5", small), ("1e6", tbl), ("doctored", doctored)):
        for s in (1.0 + 0j, 1.05 + 0.02j, 1.5 - 2.0j, 3.0 + 10.0j):
            expect = ps.lambda_weighted_sum(s, 1e5, scheme.prime_weights(t.primes), t,
                                            over_log=over_log)
            got = aux.aux_series(s, scheme, t)
            assert abs(got - expect) <= 1e-13 * abs(expect)
        at_one[name] = aux.aux_series(1.0 + 0j, scheme, t)
        on_disc[name] = scheme.expansion(1.05 + 0.02j, t)  # the disc route, per table
    assert abs(at_one["doctored"] - at_one["1e6"]) > 1e-3
    assert on_disc["doctored"] is not on_disc["1e6"]
    assert abs(on_disc["doctored"].at(1.05 + 0.02j) - on_disc["1e6"].at(1.05 + 0.02j)) > 1e-3


def test_small_prime_override_is_real(chr5, tbl):
    # B and B' force weight -1/+1 on p | q below x^eps; C and C' force +-1 everywhere below
    chr15 = enumerate_characters(15)[1]
    for kind, expect in (("B", 1), ("Bprime", -1)):
        scheme = aux.make_scheme(kind, chr15, 1e6, tbl, delta=0.75)
        w = scheme.prime_weights(np.array([3, 5]))
        assert np.allclose(w, expect)
    for kind, expect in (("C", 1), ("Cprime", -1)):
        scheme = aux.make_scheme(kind, chr15, 1e6, tbl, delta=0.75)
        w = scheme.prime_weights(np.array([2, 3, 5, 7]))  # all in the first range
        assert np.allclose(w, expect)


def test_s1_constant_dual_route(chr5, tbl):
    direct = aux.s1_constant(chr5)
    series = aux.s1_constant_series(chr5, float(tbl.limit), tbl)
    assert abs(direct - series) < 5e-3  # series converges like 1/log at 1e6


def test_s2_needs_a_table_to_its_cutoff(chr5):
    # the S_2 series runs to S2_CUTOFF whatever the table; a short one raises
    with pytest.raises(ValueError):
        aux.make_scheme("Bprime", chr5, 1e4, ps.sieve(10**5))


def test_s2_constant_dual_route(chr5, tbl):
    direct = aux.s2_constant(chr5, tbl)
    series = aux.s2_constant_series(chr5, float(tbl.limit), tbl)
    assert abs(direct - series) < 5e-3


def test_choose_m(chr5, tbl):
    s = aux.s1_constant(chr5)
    m2 = aux.choose_m(s, 2)
    assert 4 * math.log(m2) == pytest.approx(s.real + 4 * abs(s) + 1)
    m4 = aux.choose_m(s, 4)
    assert 4 * math.log(m4) == pytest.approx(-s.real + 4 * abs(s) + 1)
    with pytest.raises(ValueError):
        aux.choose_m(s, 3)


def test_linear_form_value_at_one(scheme_b):
    # the linear form equals S_1 - 2 log m exactly at s = 1; the series
    # W_x(1) differs from it by the finite-x residual F_0(x)
    pr = scheme_b.params
    got = aux.linear_form(1.0 + 0j, scheme_b)
    expect = pr.s_const - 2 * math.log(pr.m)
    assert abs(got - expect) < 1e-12


def test_closed_form_root_zeroes_linear_form(scheme_b):
    root = aux.closed_form_root(scheme_b)
    assert abs(aux.linear_form(root, scheme_b)) < 1e-10
    assert root.real > 1


def test_newton_root_close_to_closed_form(scheme_b, tbl):
    root = aux.newton_root(scheme_b, tbl)
    closed = aux.closed_form_root(scheme_b)
    logx = math.log(scheme_b.params.x)
    assert abs(root - closed) < 50.0 / logx**3
    # Newton target: the full auxiliary series is small at the root
    assert abs(aux.aux_series(root, scheme_b, tbl) ) < 1e-3 / logx**3 + 1e-9


@pytest.mark.parametrize("kind", ["B", "Bprime"])
def test_finite_x_constant_parts(kind, chr5, tbl):
    scheme = aux.make_scheme(kind, chr5, 1e5, tbl, delta=0.75)
    pr = scheme.params
    fx = aux.finite_x_constant(scheme, tbl)
    series = aux.aux_series(1.0 + 0j, scheme, tbl)
    assert abs(fx.total - series) < 1e-10 * (1 + abs(series))
    assert abs(sum(fx.residuals) + fx.model - series) < 1e-10 * (1 + abs(series))
    # ranges 2-4 carry a scalar weight t = +-1 and, at delta = 0.75, no
    # prime powers (eps = 1/2, so p > x^eps has p^2 > x): each residual is
    # t times a Mertens difference minus t log(b_j / b_{j-1})
    sign = -1 if kind == "B" else 1
    b = pr.breakpoints()
    for j, t in zip((1, 2, 3), (sign, -sign, sign)):
        mertens = ps.mertens_logp_over_p(b[j], tbl) - ps.mertens_logp_over_p(b[j - 1], tbl)
        expect = t * (mertens - math.log(b[j] / b[j - 1]))
        assert abs(fx.residuals[j] - expect) < 1e-12


@pytest.mark.parametrize("kind", ["B", "Bprime"])
def test_finite_x_root_zeroes_finite_linear_model(kind, chr5, tbl):
    scheme = aux.make_scheme(kind, chr5, 1e5, tbl, delta=0.75)
    total = aux.finite_x_constant(scheme, tbl).total
    root = aux.finite_x_root(scheme, tbl)
    # slope of the linear model, read off the linear form itself
    closed = aux.closed_form_root(scheme)
    slope = (aux.linear_form(closed, scheme) - aux.linear_form(1.0 + 0j, scheme)) / (closed - 1)
    assert abs(total + slope * (root - 1)) < 1e-10
    assert root.real > 1


def test_rouche_circle_geometry(scheme_b):
    circles = aux.rouche_circles(scheme_b.params)
    assert circles.outer_radius == pytest.approx(2 * circles.inner_radius)
    # inner circle sits in Re s >= 1
    pts = aux.inner_circle_points(scheme_b.params)
    assert np.all(pts.real >= 1 - 1e-12)


def test_root_inside_inner_circle(scheme_b):
    assert aux.root_in_inner_circle(scheme_b)


def test_linear_form_min_on_inner_exceeds_eighth(scheme_b):
    # |W_x| >= 1/8 * (1 - o(1)) on the inner circle by construction
    assert aux.linear_form_min_on_inner(scheme_b) > 0.1


def test_v_series_shift_at_tau_zero(chr5, tbl):
    s = 1.0 + 0j
    phases = aux.shift_phases(0, 1e4, tbl)
    assert np.all(phases == 1)
    plain = lfengine.log_l_truncated(s, chr5, 1e4, tbl, phases)
    pp = tbl.prime_powers(1e4)
    chi = ps.weights_for_character(chr5, pp.n)
    direct = complex(np.sum(chi / pp.k * np.exp(-pp.logn)))
    assert abs(plain - direct) < 1e-10
    assert abs(aux.v_series_shifted(s, phases, 1e4, tbl)
               - np.sum(pp.logp * np.exp(-pp.logn))) < 1e-10


def test_v_series_shifted_tells_nearby_large_taus_apart(tbl_small):
    # the two shifts round to the same 53-bit float but differ by 1e5, so
    # every phase tau log n (n <= 200) moves by thousands of radians: the
    # phases must come from the full-precision tau
    with mp.workdps(50):
        tau1 = mp.mpf("1234567890123456789012345.5")
        tau2 = tau1 + 10**5
    assert mp.mpf(tau1) == mp.mpf(tau2)

    def v(tau):
        return aux.v_series_shifted(1.0 + 0j, aux.shift_phases(tau, 200.0, tbl_small),
                                    200.0, tbl_small)

    v1, v2 = v(tau1), v(tau2)
    assert abs(v1 - v2) > 0.1
    assert v(tau2) == v2


def test_aux_series_conjugation(chr5, tbl):
    # conjugate character gives the conjugate series at real s
    chars = enumerate_characters(5)
    sch = aux.make_scheme("B", chars[1], 1e4, tbl, delta=0.75)
    schbar = aux.make_scheme("B", chars[3], 1e4, tbl, delta=0.75)
    a = aux.aux_series(1.2 + 0j, sch, tbl)
    b = aux.aux_series(1.2 + 0j, schbar, tbl)
    assert abs(a - b.conjugate()) < 1e-10


def test_linear_domain_guard(scheme_b):
    with pytest.raises(ValueError):
        aux.linear_form(5.0 + 0j, scheme_b)


# the schemes whose disc route is checked against the direct sum: criterion
# 5's eight, criterion 7's x = 200 B scheme, and one each of the over-log kinds
_DISC_SCHEMES = [(k, x) for k in ("B", "Bprime") for x in (1e4, 1e5, 1e6, 1e7)] + [
    ("B", 200.0), ("C", 1e5), ("Cprime", 1e4)]


@pytest.mark.parametrize("kind,x", _DISC_SCHEMES)
def test_disc_expansion_within_its_bound_of_the_direct_sum(kind, x, chr5, tbl_large, monkeypatch):
    scheme = aux.make_scheme(kind, chr5, x, tbl_large, delta=0.75)
    rc = aux.rouche_circles(scheme.params)
    phi = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    checks = [(s, 0) for r in (rc.inner_radius, rc.outer_radius)
              for s in (rc.center + r * np.exp(1j * phi)).tolist()]
    if kind in ("B", "Bprime"):
        iterates = []
        series = aux.aux_series
        with monkeypatch.context() as m:
            m.setattr(aux, "aux_series",
                      lambda s, sch, t: iterates.append(s) or series(s, sch, t))
            aux.newton_root(scheme, tbl_large)
        checks += [(s, d) for s in iterates for d in (0, 1)]
    # the direct route's coefficients: the series, then its term-by-term d/ds
    pp = tbl_large.prime_powers(x)
    w = scheme.power_weights(tbl_large)
    coeff = w / pp.k if kind in ("C", "Cprime") else w * pp.logp
    coeffs = (coeff, -coeff * pp.logn)
    disc = scheme.expansion(rc.center, tbl_large)
    assert disc.radius == rc.center.real - 1  # tangent to Re s = 1
    for s, d in checks:
        assert scheme.expansion(s, tbl_large) is disc  # inside, and built once
        direct = kernels.dirichlet_sum(pp.logn, coeffs[d], s)
        assert abs(disc.at(s, d) - direct) <= disc.bound[d]
        if d == 0:  # bound[1] is bound[0] log x
            assert disc.bound[0] <= 1e-13 * (1 + abs(direct))


def test_disc_radius_capped_near_the_delta_limit(chr5, tbl):
    # near delta's admissible limit R log x is about 145: an uncapped disc
    # would need K past 170, where (R log x)^(K+1) overflows a float
    params = aux.SchemeParams(x=1e5, delta=0.97, m=1.1, chr=chr5, s_const=0.5 + 0j)
    scheme = aux.WeightScheme("B", params)
    c = aux.rouche_circles(params).center
    assert (c.real - 1) * math.log(1e5) > 100
    disc = scheme.expansion(c + 0.2, tbl)
    assert disc.radius * math.log(1e5) == pytest.approx(aux._MAX_DISC_SPREAD)
    direct = ps.power_weighted_sum(c + 0.2, 1e5, scheme.power_weights(tbl), tbl)
    assert abs(aux.aux_series(c + 0.2, scheme, tbl) - direct) <= disc.bound[0]
    assert scheme.expansion(c + 0.5, tbl) is None


@pytest.mark.parametrize("label", [1, 2])  # complex and real (c on the real axis)
def test_aux_series_at_one_is_the_direct_sum(label, tbl):
    chr = enumerate_characters(5)[label]
    for kind in aux.SCHEME_KINDS:
        scheme = aux.make_scheme(kind, chr, 1e5, tbl, delta=0.75)
        assert scheme.expansion(1.0 + 0j, tbl) is None  # on or outside the disc
        direct = ps.power_weighted_sum(1.0 + 0j, 1e5, scheme.power_weights(tbl), tbl,
                                       over_log=kind in ("C", "Cprime"))
        assert aux.aux_series(1.0 + 0j, scheme, tbl) == direct


def test_series_values_are_builtin_complex(scheme_b, tbl):
    inside = aux.inner_circle_points(scheme_b.params, 4)[0]  # a numpy complex128
    for s in (inside, np.complex128(1.0), 1.0 + 0j):
        assert type(aux.aux_series(s, scheme_b, tbl)) is complex
        assert type(aux.aux_series_derivative(s, scheme_b, tbl)) is complex
    assert type(aux.linear_form(inside, scheme_b)) is complex
    assert type(aux.root_in_inner_circle(scheme_b)) is bool
