import cmath
import json
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrit.characters import (
    _component_generators,
    character_to_json,
    chi_value,
    enumerate_characters,
    euler_phi,
    prime_divisors,
    primitive_characters,
    ramified_product,
    unit_density,
)

MODULI = [3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 24, 35, 100]


@pytest.mark.parametrize("q", MODULI)
def test_group_size_is_phi(q):
    assert len(enumerate_characters(q)) == euler_phi(q)


@pytest.mark.parametrize("q", MODULI)
def test_principal_character_is_label_zero(q):
    chr0 = enumerate_characters(q)[0]
    assert chr0.is_principal
    for n in range(1, q):
        expect = 1 if math.gcd(n, q) == 1 else 0
        assert chi_value(chr0, n) == expect


@given(q=st.sampled_from(MODULI), m=st.integers(1, 400), n=st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_complete_multiplicativity(q, m, n):
    for chr in enumerate_characters(q):
        lhs = chi_value(chr, m * n)
        rhs = chi_value(chr, m) * chi_value(chr, n)
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("q", MODULI)
def test_row_orthogonality(q):
    chars = enumerate_characters(q)
    for chr in chars:
        total = sum(chi_value(chr, n) for n in range(q))
        expect = euler_phi(q) if chr.is_principal else 0.0
        assert abs(total - expect) < 1e-10


@pytest.mark.parametrize("q", MODULI)
def test_column_orthogonality(q):
    chars = enumerate_characters(q)
    for n in range(1, q):
        total = sum(chi_value(chr, n) for chr in chars)
        expect = euler_phi(q) if n % q == 1 else 0.0
        assert abs(total - expect) < 1e-10


@pytest.mark.parametrize("q", MODULI)
def test_angles_are_exact_fractions_of_the_order(q):
    for chr in enumerate_characters(q):
        for a in chr.angles:
            if a is None:
                continue
            assert isinstance(a, Fraction)
            assert 0 <= a < 1
            assert (a * chr.order).denominator == 1


@pytest.mark.parametrize("q", MODULI)
def test_parity_matches_value_at_minus_one(q):
    for chr in enumerate_characters(q):
        assert abs(chi_value(chr, q - 1) - chr.parity) < 1e-12


def test_conductor_known_cases():
    # mod 8: two primitive characters and one induced from mod 4
    chars = enumerate_characters(8)
    conductors = sorted(c.conductor for c in chars)
    assert conductors == [1, 4, 8, 8]
    assert len(primitive_characters(8)) == 2
    # every character mod a prime except the principal one is primitive
    for q in (3, 5, 7, 11):
        assert len(primitive_characters(q)) == euler_phi(q) - 1


@pytest.mark.parametrize("q", MODULI)
def test_conjugate_character_in_group(q):
    chars = enumerate_characters(q)
    for chr in chars:
        match = [
            c for c in chars
            if all(abs(chi_value(c, n) - chi_value(chr, n).conjugate()) < 1e-12
                   for n in range(q))
        ]
        assert len(match) == 1
        assert chr.conjugate() is match[0]


def test_order_divides_group_order():
    for q in MODULI:
        for chr in enumerate_characters(q):
            assert euler_phi(q) % chr.order == 0
            vals = [chi_value(chr, n) for n in range(1, q) if math.gcd(n, q) == 1]
            assert all(abs(v**chr.order - 1) < 1e-10 for v in vals)


def test_unit_density_and_ramified_product():
    assert unit_density(5) == pytest.approx(4 / 5)
    assert unit_density(12) == pytest.approx(4 / 12)
    assert ramified_product(5) == pytest.approx(6 / 5)
    assert ramified_product(12) == pytest.approx((3 / 2) * (4 / 3))


def test_json_table_roundtrip():
    chr = enumerate_characters(5)[1]
    d = json.loads(json.dumps(character_to_json(chr)))
    assert d == character_to_json(chr)
    for n, num, den in d["values"]:
        expect = chi_value(chr, n)
        got = cmath.exp(2j * cmath.pi * num / den) if den else 0.0
        assert abs(got - expect) < 1e-12


@pytest.mark.parametrize("q", [8, 15])
def test_coeff_array_built_once_and_read_only(q):
    for chr in enumerate_characters(q):
        arr = chr.coeff_array()
        assert arr is chr.coeff_array()
        assert not arr.flags.writeable
        for n in range(q):
            assert arr[n] == pytest.approx(chi_value(chr, n), abs=1e-15)


def test_coeff_array_is_chi_value_exactly():
    # one conversion from angle to complex: chi = -1 carries no 1.2e-16 i
    for q in range(3, 61):
        for chr in enumerate_characters(q):
            arr = chr.coeff_array()
            assert all(arr[n] == chi_value(chr, n) for n in range(q))
            if chr.order <= 2:
                assert not arr.imag.any()


def test_small_moduli_rejected():
    with pytest.raises(ValueError):
        enumerate_characters(2)
    with pytest.raises(ValueError):
        enumerate_characters(1)


def test_factoring_and_generators_match_sympy():
    for q in range(1, 2001):
        primes = prime_divisors(q)
        assert primes == sorted(sympy.factorint(q))
        for p in primes:
            if p == 2:
                continue
            pe = p ** sympy.multiplicity(p, q)
            assert _component_generators(p, pe) == [(sympy.primitive_root(pe), pe - pe // p)]
