import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrit import primesums as ps
from lcrit.characters import enumerate_characters


def test_sieve_matches_sympy(tbl_small):
    expect = list(sympy.primerange(2, 10**4 + 1))
    assert tbl_small.primes.tolist() == expect


def test_sieve_limit_guard():
    with pytest.raises(ValueError):
        ps.sieve(2 * 10**9)


def test_prime_powers_reproduce_mangoldt(tbl_small):
    pp = tbl_small.prime_powers(500)
    got = {int(n): float(lp) for n, lp in zip(pp.n, pp.logp)}
    for n in range(2, 501):
        fac = sympy.factorint(n)
        if len(fac) == 1:
            (p,) = fac
            assert got[n] == pytest.approx(math.log(p), abs=1e-12)
        else:
            assert n not in got


def test_mangoldt_divisor_identity(tbl_small):
    # sum over d | n of Lambda(d) = log n
    pp = tbl_small.prime_powers(10**4)
    lam = {int(n): float(lp) for n, lp in zip(pp.n, pp.logp)}
    for n in list(range(2, 200)) + [720, 1024, 5040, 9999]:
        total = sum(lam.get(d, 0.0) for d in sympy.divisors(n))
        assert total == pytest.approx(math.log(n), abs=1e-10)


@given(sr=st.floats(1.0, 3.0), si=st.floats(-20.0, 20.0),
       x=st.sampled_from([100.0, 1000.0, 5000.0]))
@settings(max_examples=25, deadline=None)
def test_log_identity_defect_small(sr, si, x):
    tbl = ps.sieve(10**4)
    chars = enumerate_characters(5)
    chr = chars[1]
    w = chr.coeff_array()[tbl.primes % 5]
    s = complex(sr, si)
    lhs, rhs, defect = ps.lambda_chi_over_log(s, x, w, tbl)
    # both sides only differ by prime powers above x
    assert defect < 3.0 / math.sqrt(x)


def test_weight_magnitude_guard(tbl_small):
    w = np.full(len(tbl_small.primes), 1.5)
    with pytest.raises(ValueError):
        ps.lambda_weighted_sum(2.0 + 0j, 100.0, w, tbl_small)
