import dataclasses
import io
import json
import math
from csv import DictReader

import mpmath as mp
import numpy as np
import pytest
import sympy

from lcrit import auxseries as aux
from lcrit import diophantine as dio
from lcrit import lfengine as lf
from lcrit import primesums as ps
from lcrit import scanner as sc
from lcrit.characters import enumerate_characters, euler_phi, ramified_product


def test_euler_constant_dual_routes_agree():
    val, diff = sc.euler_constant_dual()
    assert diff < 1e-20
    assert float(val) == pytest.approx(0.5772156649015329, abs=1e-15)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 11, 12])
def test_theorem_bound_relations(q):
    b = sc.theorem_bounds(q)
    assert b.thm2 == pytest.approx(b.thm1 / 2)
    assert b.thm4 == pytest.approx(2 * b.thm3)
    c0 = float(sc.euler_constant_dual()[0])
    assert b.thm1 == pytest.approx(2 * math.exp(c0) * euler_phi(q) / q)
    assert b.thm3 == pytest.approx(
        (math.pi**2 / 12) * math.exp(-c0) * ramified_product(q)
    )
    # the large-value and small-value constants multiply to pi^2/3 * phi/q * prod(1+1/p)
    assert b.thm1 * b.thm3 == pytest.approx(
        (math.pi**2 / 6) * (euler_phi(q) / q) * ramified_product(q)
    )
    # the inequality right-hand sides are the theorem constants at scale log x
    for x in (50.0, 1e3, 1e6):
        llx = math.log(math.log(x))
        thm1_sum = llx + c0 + math.log(euler_phi(q) / q)
        thm3_sum = -llx - c0 + math.log(math.pi**2 / 6) + math.log(ramified_product(q))
        assert math.isclose(sc.thm1_rhs(x, q), thm1_sum, rel_tol=1e-15)
        assert math.isclose(sc.thm3_rhs(x, q), thm3_sum, rel_tol=1e-15)


def test_majorant_dominates_minorant(tbl):
    for x in (1e3, 1e4, 1e5):
        for q in (3, 5, 8):
            assert sc.coprime_majorant(x, q, tbl) > 0
            assert sc.coprime_minorant(x, q, tbl) < 0


def test_inequality_checks_hold_on_small_grid(tbl):
    for q in (3, 5):
        chars = enumerate_characters(q)
        non_prin = [c for c in chars if not c.is_principal]
        k1 = sc.fit_thm1_allowance(q, (1e3, 10 ** 3.5), tbl)
        k3 = sc.fit_thm3_allowance(q, (1e3, 10 ** 3.5), tbl)
        for t in (1e3, 1e4, 1e5):
            s = complex(1.0, t)
            x = math.log(t) ** 2
            for chr in non_prin:
                r1 = sc.check_thm1_inequality(s, chr, t, tbl, k1)
                r3 = sc.check_thm3_inequality(s, chr, x, tbl, k3)
                assert not r1.violation and not r3.violation


@pytest.mark.parametrize("x", [1.0, 0.5])
def test_truncated_log_l_needs_cutoff_two(x, tbl):
    # the allowance K/log x and the bound's log log x need log x > 0
    chr = enumerate_characters(5)[1]
    with pytest.raises(ValueError, match="x >= 2"):
        lf.log_l_truncated(1.0 + 50.0j, chr, x, tbl)
    with pytest.raises(ValueError, match="x >= 2"):
        sc.check_thm3_inequality(1.0 + 50.0j, chr, x, tbl, 1.0)


def test_sweep_small(tbl):
    rep = sc.sweep_inequalities(qs=(3, 4), t_lo=1e3, t_hi=1e4, n_t=20, tbl=tbl)
    assert rep["violations_thm1"] == 0
    assert rep["violations_thm3"] == 0
    assert rep["checked"] > 0


def test_sweep_takes_both_verdicts_from_one_sum_per_point(tbl, monkeypatch):
    calls = []
    real = ps.lambda_weighted_sum
    monkeypatch.setattr(ps, "lambda_weighted_sum",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rep = sc.sweep_inequalities(qs=(5,), n_t=4, tbl=tbl)
    assert rep["checked"] == 12  # three non-principal characters mod 5, four heights
    assert len(calls) == rep["checked"]


def test_scan_requires_points():
    with pytest.raises(ValueError, match="at least one point"):
        sc.scan([], enumerate_characters(5)[1])


def test_scan_requires_t_above_e(tbl):
    chr = enumerate_characters(5)[1]
    with pytest.raises(ValueError):
        sc.scan([complex(1.0, 2.0)], chr)


def test_scan_keeps_non_finite_l_out_of_the_extremes():
    # far left of the critical strip |L| overflows: such a point is an error,
    # not a record that the running extremes see
    chr = enumerate_characters(5)[1]
    with np.errstate(all="ignore"):
        rep = sc.scan([complex(1.0, 1e3)] + [complex(-100.0, t) for t in (1e3, 3162.3, 1e4)], chr)
    bad = [r for r in rep.records if not math.isfinite(r.abs_l)]
    assert len(bad) == 3 and all(r.error for r in bad)
    assert rep.errors == 3
    assert rep.running_max_large == [rep.records[0].norm_large] * 4
    assert rep.running_min_small == [rep.records[0].norm_small] * 4
    with pytest.raises(ValueError, match="finite sigma and t"):
        sc.scan([complex(math.nan, 1e3)], chr)


def test_scan_rejects_principal_character():
    with pytest.raises(ValueError):
        sc.scan([1 + 50j], enumerate_characters(5)[0])


def test_scan_report_csv(tbl):
    chr = enumerate_characters(5)[1]
    ts = np.exp(np.linspace(math.log(1e3), math.log(1e4), 5))
    rep = sc.scan([complex(1.0, t) for t in ts], chr)
    assert rep.errors == 0
    assert len(rep.records) == 5
    # running extremes are monotone
    assert rep.running_max_large == sorted(rep.running_max_large)
    assert rep.running_min_small == sorted(rep.running_min_small, reverse=True)
    # extremes respect the theorem constants on this tame range
    assert rep.max_norm_large < rep.bounds.thm1
    assert rep.min_norm_small > rep.bounds.thm3
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("sigma,t,abs_l")
    rows = list(DictReader(io.StringIO(csv)))
    assert [r["source"] for r in rows] == ["sigma_grid"] * 5


def test_scan_records_evaluator_errors(monkeypatch):
    chr = enumerate_characters(5)[1]
    real = sc.lfengine.dirichlet_l

    def flaky(s, chr):
        if s.imag > 100:
            raise sc.lfengine.ZetaPoleError("L vanishes here")
        return real(s, chr)

    monkeypatch.setattr(sc.lfengine, "dirichlet_l", flaky)
    rep = sc.scan([complex(1.0, 50.0), complex(1.0, 150.0), complex(1.0, 60.0)], chr)
    assert rep.errors == 1
    assert [r.error for r in rep.records] == ["", "ZetaPoleError: L vanishes here", ""]
    assert math.isnan(rep.records[1].abs_l)
    assert rep.running_max_large[1] == rep.running_max_large[0]
    assert "ZetaPoleError: L vanishes here" in rep.to_csv()

    # anything but an evaluator error is a bug and propagates
    monkeypatch.setattr(sc.lfengine, "dirichlet_l", lambda s, chr: None)
    with pytest.raises(AttributeError):
        sc.scan([complex(1.0, 50.0)], chr)


# theorem 4 needs log x > 4 log m, which chi mod 5 misses at x = 50
@pytest.mark.parametrize("theorem,q", [(2, 5), (4, 3)], ids=["thm2", "thm4"])
def test_chain_report_roundtrips_to_json(theorem, q, tbl):
    chr = enumerate_characters(q)[1]
    chain = sc.check_thm2_chain if theorem == 2 else sc.check_thm4_chain
    rep = chain(chr, x=50.0, delta=0.75, tbl=tbl, tolerance=0.05)
    d = rep.to_json()
    json.dumps(d)  # serializable
    assert d["theorem"] == theorem
    assert d["passed"] in (True, False)
    assert isinstance(d["s_const"], list) and len(d["s_const"]) == 2


def test_log_l_at_tau_needs_a_table_to_its_cutoff(tbl_small):
    # log^2(1e60) ~ 19085 > 10**4: the sum may not silently stop at the table's end
    chr = enumerate_characters(5)[1]
    scheme = aux.make_scheme("B", chr, 50.0, tbl_small)
    cert = dio.find_tau(dio.targets_from_scheme(scheme, tbl_small, 0.05))
    with pytest.raises(ValueError, match="exceeds table limit"):
        sc.check_thm2_chain(chr, x=50.0, tbl=tbl_small, tolerance=0.05,
                            cert=dataclasses.replace(cert, tau_str="1e60"))


# a certificate for chi mod 7 (label 1) at x = 70 once passed chi mod 8's
# chain (the primes <= 70 agree, the angle targets do not) with a transfer
# defect of 0.76, and one made at tolerance 0.3 (max defect 0.075) passed a
# chain asked for 0.02
@pytest.mark.parametrize("q,label,tolerance", [(8, 2, 0.02), (7, 1, 0.3)],
                         ids=["other-character", "other-tolerance"])
def test_chain_rejects_a_certificate_for_other_targets(q, label, tolerance, tbl):
    scheme = aux.make_scheme("B", enumerate_characters(7)[1], 70.0, tbl)
    cert = dio.find_tau(dio.targets_from_scheme(scheme, tbl, tolerance))
    with pytest.raises(ValueError, match="other angle targets or tolerance"):
        sc.check_thm2_chain(enumerate_characters(q)[label], x=70.0, tbl=tbl, cert=cert)


def _mp_log_euler(cutoff, angle, tau) -> mp.mpc:
    """sum over p^k <= cutoff of e^{2 pi i k angle(p)} p^{-k (1 + i tau)} / k,
    term by term at the working precision."""
    total = mp.mpc(0)
    for p in sympy.primerange(2, int(cutoff) + 1):
        a = angle(p)
        if a is None:
            continue
        k, pk = 1, p
        while pk <= cutoff:
            turn = (k * a) % 1
            total += (mp.expjpi(2 * mp.mpf(turn.numerator) / turn.denominator)
                      * mp.expj(-tau * k * mp.log(p)) / (k * pk))
            k, pk = k + 1, pk * p
    return total


def test_chain_matches_a_direct_mpmath_sum(tbl):
    # |L(1 + i tau)| (cutoff max(x, log^2 |tau|)) and the transfer defect
    # (cutoff x) against mpmath sums with exact angles and the full-precision tau
    chr = enumerate_characters(7)[1]
    x = 70.0
    rep = sc.check_thm2_chain(chr, x=x, tbl=tbl)
    c_scheme = aux.WeightScheme("C", aux.make_scheme("B", chr, x, tbl).params)
    with mp.workdps(len(rep.tau_str) + 30):
        tau = mp.mpf(rep.tau_str)
        cut = max(x, mp.log(abs(tau)) ** 2)
        abs_l = mp.exp(mp.re(_mp_log_euler(cut, chr.angle, tau)))
        m_x = _mp_log_euler(x, c_scheme.prime_weight_angle, 0)  # M_x(1), scheme C
        transfer = _mp_log_euler(x, chr.angle, tau) - m_x - mp.log(mp.mpf(6) / 7)  # phi(7)/7
    assert cut > 7000
    assert rep.abs_l == pytest.approx(float(abs_l), rel=1e-13)
    assert rep.transfer_defect == pytest.approx(float(abs(transfer)), abs=1e-13)


def test_thm2_chain_mod3_loose_tolerance(tbl):
    # this tau search once crashed inside the lattice reduction
    rep = sc.check_thm2_chain(enumerate_characters(3)[1], x=50.0, tbl=tbl, tolerance=0.05)
    assert rep.passed
