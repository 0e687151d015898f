"""Exact Dirichlet characters mod q.

Characters are built from the dual group of (Z/qZ)* via CRT: each prime-power
factor contributes a cyclic component (two for 2^e, e >= 3), and a character
is a tuple of exponents against the component generators.  Values are stored
as exact rational angles (fractions of a turn), so multiplicativity and
orthogonality hold exactly; the complex value table is derived from them once
per character.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Character:
    """A Dirichlet character mod q with exact root-of-unity values.

    ``angles[n]`` is the value at residue n as a rational number of turns
    (chi(n) = e^{2 pi i angles[n]}), or None when gcd(n, q) > 1.
    """

    modulus: int
    label: int
    angles: tuple  # tuple[Fraction | None], length q, index = residue
    is_primitive: bool
    parity: int  # chi(-1), +1 or -1
    conductor: int
    order: int = field(default=1)
    # chi(0..q-1) as complex128, built once; coeff_array() returns it
    _coeff: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        out = np.array([chi_value(self, n) for n in range(self.modulus)], dtype=np.complex128)
        out.flags.writeable = False
        object.__setattr__(self, "_coeff", out)

    def angle(self, n: int) -> Fraction | None:
        """Exact angle of chi(n) in turns, or None if chi(n) = 0."""
        return self.angles[n % self.modulus]

    def __call__(self, n: int) -> complex:
        return chi_value(self, n)

    @property
    def is_principal(self) -> bool:
        return self.label == 0

    def conjugate(self) -> "Character":
        """The conjugate character chi-bar: every exponent negated."""
        _, orders, _ = _group_data(self.modulus)
        exps = _exponents(self.label, orders)
        conj = _label(tuple(-c % o for c, o in zip(exps, orders)), orders)
        return enumerate_characters(self.modulus)[conj]

    def coeff_array(self) -> np.ndarray:
        """chi(0..q-1) as read-only complex128, for vectorized residue lookup."""
        return self._coeff


def prime_divisors(q: int) -> list[int]:
    """The distinct primes dividing q >= 1, increasing (trial division)."""
    out, p = [], 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1
    return out + [q] if q > 1 else out


def _component_generators(p: int, pe: int) -> list[tuple[int, int]]:
    """Generators and orders of the cyclic components of (Z/p^e Z)*, pe = p^e;
    for odd p, the least g prime to p with g^(phi/r) != 1 for each prime r | phi."""
    if p == 2:
        if pe == 2:
            return []
        if pe == 4:
            return [(3, 2)]
        return [(pe - 1, 2), (5, pe // 4)]  # {-1} x <5>
    phi = pe - pe // p
    g = next(g for g in range(2, pe) if g % p
             and all(pow(g, phi // r, pe) != 1 for r in prime_divisors(phi)))
    return [(g, phi)]


@lru_cache(maxsize=None)
def _group_data(q: int):
    """CRT component generators, orders, and residue -> exponent-tuple map."""
    gens: list[int] = []  # generators lifted to mod q
    orders: list[int] = []
    for p in prime_divisors(q):
        pe = math.gcd(q, p ** q.bit_length())  # the p-part of q
        cof = q // pe
        # lift g mod pe to a residue mod q that is 1 mod q/pe
        inv = pow(cof, -1, pe)
        for g, ordg in _component_generators(p, pe):
            lifted = (1 + cof * ((g - 1) * inv % pe)) % q
            gens.append(lifted)
            orders.append(ordg)
    # enumerate the full group to build the discrete-log map
    dlog: dict[int, tuple[int, ...]] = {}
    exps = [0] * len(gens)
    total = 1
    for o in orders:
        total *= o
    for _ in range(total):
        r = 1
        for g, a in zip(gens, exps):
            r = r * pow(g, a, q) % q
        dlog[r] = tuple(exps)
        for i in range(len(exps)):
            exps[i] += 1
            if exps[i] < orders[i]:
                break
            exps[i] = 0
    return tuple(gens), tuple(orders), dlog


def _exponents(label: int, orders: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent tuple of a character label: its mixed-radix digits against
    the component orders, first component least significant."""
    exps = []
    for o in orders:
        exps.append(label % o)
        label //= o
    return tuple(exps)


def _label(exps: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Character label of an exponent tuple (inverse of _exponents)."""
    label = 0
    for c, o in zip(reversed(exps), reversed(orders)):
        label = label * o + c
    return label


def _char_angles(q: int, char_exps: tuple[int, ...]) -> tuple:
    _, orders, dlog = _group_data(q)
    angles: list[Fraction | None] = [None] * q
    for r, exps in dlog.items():
        a = Fraction(0)
        for c, x, o in zip(char_exps, exps, orders):
            a += Fraction(c * x, o)
        angles[r] = a % 1
    return tuple(angles)


def _conductor(q: int, angles: tuple) -> int:
    divisors = sorted(d for d in range(1, q + 1) if q % d == 0)
    for d in divisors:
        if all(
            angles[n % q] == 0
            for n in range(1, q + 1)
            if n % d == 1 % d and math.gcd(n, q) == 1
        ):
            return d
    return q


@lru_cache(maxsize=None)
def enumerate_characters(q: int) -> tuple[Character, ...]:
    """All phi(q) Dirichlet characters mod q; label 0 is principal.

    The modulus must be at least 3 (q > 2 throughout).
    """
    if q < 3:
        raise ValueError(f"modulus must be >= 3, got {q}")
    _, orders, _ = _group_data(q)
    chars = []
    n_chars = 1
    for o in orders:
        n_chars *= o
    for label in range(n_chars):
        exps = _exponents(label, orders)
        angles = _char_angles(q, exps)
        cond = _conductor(q, angles)
        pa = angles[(q - 1) % q]
        parity = 1 if pa == 0 else -1
        order = 1  # lcm over components of o/gcd(c, o)
        for c, o in zip(exps, orders):
            oo = o // math.gcd(c, o)
            order = order * oo // math.gcd(order, oo)
        chars.append(
            Character(
                modulus=q,
                label=label,
                angles=angles,
                is_primitive=(cond == q),
                parity=parity,
                conductor=cond,
                order=order,
            )
        )
    return tuple(chars)


def primitive_characters(q: int) -> list[Character]:
    return [c for c in enumerate_characters(q) if c.is_primitive]


def chi_value(chr: Character, n: int) -> complex:
    """chi(n) as a complex number (exact angle, one rounding at conversion)."""
    a = chr.angle(n)
    if a is None:
        return 0j
    if a == 0:
        return 1 + 0j
    if 2 * a == 1:
        return -1 + 0j
    return cmath.exp(2j * cmath.pi * float(a))


def unit_density(q: int) -> float:
    """phi(q)/q as an exact rational, converted once."""
    if q < 1:
        raise ValueError("q must be positive")
    frac = Fraction(1)
    for p in prime_divisors(q):
        frac *= Fraction(p - 1, p)
    return float(frac)


def euler_phi(q: int) -> int:
    num = q
    for p in prime_divisors(q):
        num = num // p * (p - 1)
    return num


def ramified_product(q: int) -> float:
    """Product over primes p | q of (p+1)/p (empty product for q = 1)."""
    if q < 1:
        raise ValueError("q must be positive")
    frac = Fraction(1)
    for p in prime_divisors(q):
        frac *= Fraction(p + 1, p)
    return float(frac)


def character_to_json(chr: Character) -> dict:
    """JSON-ready table: zeros omitted, angles as (numerator, denominator)."""
    values = [
        [n, a.numerator, a.denominator]
        for n, a in enumerate(chr.angles)
        if a is not None
    ]
    return {
        "q": chr.modulus,
        "label": chr.label,
        "conductor": chr.conductor,
        "parity": chr.parity,
        "values": values,
    }
