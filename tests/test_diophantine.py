import math
from fractions import Fraction

import mpmath as mp
import pytest

from lcrit import auxseries as aux
from lcrit import diophantine as dio
from lcrit.characters import enumerate_characters


def test_angle_targets_validation():
    with pytest.raises(ValueError):
        dio.AngleTargets((2, 3), (Fraction(0), Fraction(0)), 0.6)
    with pytest.raises(ValueError):
        dio.AngleTargets((2, 3), (Fraction(0),), 0.1)


def test_kronecker_defect_basic():
    # tau = 2 pi / log 2 puts tau log 2 / 2 pi exactly at 1, i.e. defect 0
    tau = 2 * math.pi / math.log(2)
    assert dio.kronecker_defect_str(repr(tau), 2, Fraction(0), 50) < 1e-12
    # and against target 1/2 the defect is exactly 1/2
    assert dio.kronecker_defect_str(repr(tau), 2, Fraction(1, 2), 50) == pytest.approx(0.5)


def test_zero_targets_shortcut():
    tg = dio.AngleTargets((2, 3, 5), (Fraction(0),) * 3, 0.05)
    cert = dio.find_tau(tg)
    assert cert.success
    assert float(cert.tau) == 0.0
    assert cert.max_defect == 0.0


def test_single_prime_closed_form():
    tg = dio.AngleTargets((3,), (Fraction(1, 4),), 0.01)
    cert = dio.find_tau(tg)
    assert cert.success
    assert cert.max_defect < 1e-9


def test_find_tau_small_system():
    primes = (2, 3, 5, 7, 11)
    targets = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3))
    tg = dio.AngleTargets(primes, targets, 0.02)
    cert = dio.find_tau(tg)
    assert cert.success
    assert cert.max_defect <= 0.02
    assert dio.revalidate(cert)
    # weight defects are the chordal distances 2 sin(pi d)
    for d, wd in zip(cert.defects, cert.weight_defects):
        assert wd == pytest.approx(2 * math.sin(math.pi * d), abs=1e-12)


def test_find_tau_respects_interval():
    primes = (2, 3, 5)
    targets = (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2))
    tg = dio.AngleTargets(primes, targets, 0.03)
    cert = dio.find_tau(tg, interval=(10.0, 80.0))
    assert cert.success
    lo, hi = cert.search_interval
    if cert.in_interval:
        with mp.workdps(len(cert.tau_str) + 10):
            l10 = float(mp.log10(abs(mp.mpf(cert.tau_str))))
        assert lo <= l10 <= hi


def test_certificate_roundtrip(tmp_path):
    tg = dio.AngleTargets((2, 3), (Fraction(1, 3), Fraction(1, 5)), 0.05)
    cert = dio.find_tau(tg)
    path = tmp_path / "cert.json"
    dio.save_certificate(cert, str(path))
    back = dio.load_certificate(str(path))
    assert back == cert
    assert dio.revalidate(back)


def test_tampered_certificate_fails_revalidation(tmp_path):
    tg = dio.AngleTargets((2, 3), (Fraction(1, 3), Fraction(1, 5)), 0.05)
    cert = dio.find_tau(tg)
    import dataclasses

    bad = dataclasses.replace(cert, defects=(0.0,) * len(cert.defects))
    assert not dio.revalidate(bad)


def test_targets_from_scheme_tolerance(tbl):
    chr = enumerate_characters(5)[1]
    scheme = aux.make_scheme("B", chr, 1e4, tbl, delta=0.75)
    tg = dio.targets_from_scheme(scheme, tbl)
    assert tg.tolerance == pytest.approx(1.0 / math.log(1e4) ** 2)
    assert len(tg.primes) == len(tg.targets)
    assert tg.primes[0] == 2
    # targets are the negated weight angles mod 1
    for p, t in list(zip(tg.primes, tg.targets))[:20]:
        assert t == (-scheme.prime_weight_angle(p)) % 1
