"""Dirichlet L-functions via Euler-Maclaurin Hurwitz zeta.

The core primitive is the *regularized* Hurwitz zeta R(s, a) = zeta(s, a) -
1/(s-1), analytic at s = 1, with derivative orders 0..2.  L(s, chi) for
non-principal chi is then q^{-s} sum_a chi(a) R(s, a/q): the pole parts
cancel exactly because sum_a chi(a) = 0, so evaluation at s = 1 is exact
rather than a cancellation of two large terms.

On top of that sit a branch-tracked log L (continuous in sigma from a
far-right anchor where the Euler product makes the principal branch
unambiguous) and the truncated prime-sum approximation to log L.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import mpmath as mp

from . import kernels
from . import primesums as ps
from .characters import Character


class ZetaPoleError(ValueError):
    """Raised when an evaluation lands on the pole at s = 1."""


class ComplexEval(NamedTuple):
    """A complex value with a heuristic radius of numerical uncertainty."""

    value: complex
    error_radius: float


# The one Euler-Maclaurin scheme: N = max(EULER_MACLAURIN_CUTOFF, |t|/3 + 20)
# main terms and M = BERNOULLI_TERMS Bernoulli corrections; log L is anchored
# at sigma = BRANCH_ANCHOR_SIGMA.
EULER_MACLAURIN_CUTOFF = 50
BERNOULLI_TERMS = 16
BRANCH_ANCHOR_SIGMA = 6.0

_BK = [float(mp.bernoulli(2 * k)) / math.factorial(2 * k) for k in range(64)]  # B_2k/(2k)!


def _cutoff(t: float) -> int:
    return max(EULER_MACLAURIN_CUTOFF, int(abs(t) / 3) + 20)


def _hurwitz_reg(s: complex, a: float, deriv: int = 0) -> list[ComplexEval]:
    """R(s, a) = zeta(s, a) - 1/(s-1) and its s-derivatives, orders 0..deriv.

    Euler-Maclaurin with N main terms and M Bernoulli corrections:

      zeta(s,a) = sum_{n<N} (n+a)^{-s} + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
                  + sum_{k=1..M} B_{2k}/(2k)! * P_k(s) * (N+a)^{-(s+2k-1)}

    with P_k(s) = s(s+1)...(s+2k-2).  The pole term (N+a)^{1-s}/(s-1) minus
    1/(s-1) is expanded in a series in eps = 1 - s near s = 1 so that R and
    its derivatives stay finite there.  One pass yields every order up to
    deriv; the returned list is indexed by order.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1, or 2")
    s = complex(s)
    N = _cutoff(s.imag)
    M = BERNOULLI_TERMS

    main = kernels.hurwitz_main_sum(float(a), N, s, deriv)

    u = math.log(N + a)
    base = cmath.exp(-s * u)  # (N+a)^{-s}

    # regularized pole part: (N+a)^{1-s}/(s-1) - 1/(s-1)
    eps = 1.0 - s
    if abs(eps) < 0.25:
        # series in eps: R1 = -sum_{j>=1} eps^{j-1} u^j / j!; step m adds the
        # eps^m terms of R1, R1' and R1'' (no dividing by eps)
        r1 = [0j, 0j, 0j]
        epspow = 1.0 + 0j  # eps^m
        f1, f2, f3 = u, u * u / 2.0, u**3 / 6.0  # u^j / j! for j = m+1, m+2, m+3
        for m in range(200):
            terms = (-epspow * f1, (m + 1) * epspow * f2, -(m + 1) * (m + 2) * epspow * f3)
            r1 = [r + x for r, x in zip(r1, terms)]
            if m > 2 and max(map(abs, terms)) < 1e-30:
                break
            epspow *= eps
            f1, f2, f3 = f2, f3, f3 * (u / (m + 4))
    else:
        sm1 = s - 1.0
        term1 = cmath.exp(-sm1 * u) / sm1  # (N+a)^{1-s}/(s-1)
        g = -u - 1.0 / sm1
        r1 = [term1 - 1.0 / sm1, term1 * g + 1.0 / sm1**2,
              term1 * (g * g + 1.0 / sm1**2) - 2.0 / sm1**3]

    # Bernoulli corrections.  P, dP, ddP are P_k(s) and its first two
    # s-derivatives, extended by the rising-factorial recurrence
    # P_k = P_{k-1} (s+2k-3)(s+2k-2) and the product rule, so no step divides
    # by s+j (s = 0, -1, ... are ordinary points);
    # S_d = sum_k B_2k/(2k)! (N+a)^{-(s+2k-1)} P_k^(d).
    P, dP, ddP = s, 1.0 + 0j, 0j  # P_1(s) = s
    S0 = S1 = S2 = 0j
    for k in range(1, M + 1):
        if k > 1:
            for sj in (s + (2 * k - 3), s + (2 * k - 2)):
                ddP = ddP * sj + 2.0 * dP
                dP = dP * sj + P
                P *= sj
        e = cmath.exp(-(s + 2 * k - 1) * u)  # (N+a)^{-(s+2k-1)}
        be = _BK[k] * e
        S0 += be * P
        S1 += be * dP
        S2 += be * ddP
    last = abs(_BK[M] * P * e)
    # d/ds of (N+a)^{-(s+2k-1)} brings down -u
    tail = (S0, S1 - u * S0, S2 - 2.0 * u * S1 + u * u * S0)

    # half term (N+a)^{-s}/2 and its derivatives
    half = 0.5 * base
    halves = (half, -u * half, u * u * half)
    out = []
    for d in range(deriv + 1):
        err = 2.0 * last + 1e-15 * (abs(main[d]) + abs(r1[0]) + N * 1e-16)
        out.append(ComplexEval(main[d] + r1[d] + halves[d] + tail[d], err * (u + 1) ** d))
    return out


def hurwitz_regularized(s: complex, a: float, deriv: int = 0) -> ComplexEval:
    """Public wrapper for R(s, a) = zeta(s, a) - 1/(s-1), deriv in {0, 1, 2}."""
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    return _hurwitz_reg(s, a, deriv)[deriv]


# ---------------------------------------------------------------------------
# Riemann zeta and derivatives


def zeta_orders(s: complex, deriv: int) -> list[ComplexEval]:
    """zeta^(d)(s) for d = 0..deriv: R(s, 1) plus the pole part's derivatives."""
    if abs(s - 1.0) < 1e-12:
        raise ZetaPoleError("zeta and its derivatives have a pole at s = 1")
    sm1 = s - 1.0
    pole = (1.0 / sm1, -1.0 / sm1**2, 2.0 / sm1**3)
    return [ComplexEval(r.value + p, r.error_radius)
            for r, p in zip(_hurwitz_reg(s, 1.0, deriv), pole)]


def zeta(s: complex) -> ComplexEval:
    return zeta_orders(s, 0)[0]


def zeta_prime(s: complex) -> ComplexEval:
    return zeta_orders(s, 1)[1]


def zeta_second(s: complex) -> ComplexEval:
    return zeta_orders(s, 2)[2]


# ---------------------------------------------------------------------------
# Dirichlet L-functions (non-principal only)


def _check_char(chr: Character) -> None:
    if chr.is_principal:
        raise ValueError("principal characters are not supported here")


def _l_orders(s: complex, chr: Character, deriv: int) -> list[ComplexEval]:
    """L^(d)(s, chi) for d = 0..deriv, one Hurwitz pass per residue.

    L = q^{-s} T with T = sum_a chi(a) R(s, a/q); the product rule gives
    L' = q^{-s} (T' - T log q) and L'' = q^{-s} (T'' - 2 T' log q + T log^2 q).
    """
    _check_char(chr)
    q = chr.modulus
    coeff = chr.coeff_array()
    tot = [0j] * (deriv + 1)
    err = [0.0] * (deriv + 1)
    for a in range(1, q + 1):
        c = coeff[a % q]
        if c == 0:
            continue
        for d, r in enumerate(_hurwitz_reg(s, a / q, deriv)):
            tot[d] += c * r.value
            err[d] += abs(c) * r.error_radius
    lq = math.log(q)
    qs = cmath.exp(-complex(s) * lq)
    vals = [tot[0]]
    if deriv >= 1:
        vals.append(tot[1] - lq * tot[0])
    if deriv >= 2:
        vals.append(tot[2] - 2 * lq * tot[1] + lq * lq * tot[0])
    # orders d >= 1 allow for rounding in their log^d q * T term
    return [ComplexEval(qs * v, abs(qs) * (e + (lq**d * 1e-14 * abs(tot[0]) if d else 0.0)))
            for d, (v, e) in enumerate(zip(vals, err))]


def dirichlet_l(s: complex, chr: Character, deriv: int = 0) -> ComplexEval:
    """L(s, chi), L'(s, chi), or L''(s, chi) for non-principal chi.

    Entire for non-principal chi, so s = 1 is an ordinary point: the Hurwitz
    pole terms cancel exactly since sum_a chi(a) = 0.
    """
    return _l_orders(s, chr, deriv)[deriv]


def l_log_derivative(s: complex, chr: Character) -> ComplexEval:
    """L'/L(s, chi), non-principal chi; raises on a zero of L."""
    lv, lp = _l_orders(s, chr, 1)
    if abs(lv.value) < 1e-14:
        raise ZetaPoleError("L vanishes at this point; L'/L undefined")
    val = lp.value / lv.value
    err = (lp.error_radius + abs(val) * lv.error_radius) / abs(lv.value)
    return ComplexEval(val, err)


# ---------------------------------------------------------------------------
# Branch-tracked log L


def log_l(s: complex, chr: Character) -> ComplexEval:
    """log L(s, chi), continuous along the horizontal path from the anchor.

    Anchored at sigma = BRANCH_ANCHOR_SIGMA (same t) where |L - 1| < 1/2 and
    the principal branch is unambiguous; the branch is transported left by
    accumulating principal logs of consecutive ratios, with step halving
    whenever a ratio increment looks too large to trust.
    """
    _check_char(chr)
    s = complex(s)
    sig0 = max(BRANCH_ANCHOR_SIGMA, s.real + 0.5)
    anchor = complex(sig0, s.imag)
    la = dirichlet_l(anchor, chr)
    if abs(la.value - 1.0) > 0.5:
        raise RuntimeError("anchor not in the principal-branch region")
    total = cmath.log(la.value)
    err = la.error_radius / abs(la.value)
    cur = anchor
    curval = la.value
    step = 0.25
    while cur.real > s.real + 1e-12:
        h = min(step, cur.real - s.real)
        nxt = complex(cur.real - h, s.imag)
        nv = dirichlet_l(nxt, chr)
        if abs(nv.value) < 1e-13:
            raise ZetaPoleError("path passes through a zero of L")
        d = cmath.log(nv.value / curval)
        if abs(d) > 1.0 and h > 1e-4:
            step = h / 2.0
            continue
        total += d
        err += nv.error_radius / abs(nv.value)
        cur = nxt
        curval = nv.value
        step = min(step * 1.5, 0.25)
    return ComplexEval(total, err)


# ---------------------------------------------------------------------------
# Truncated prime-sum approximations


def log_l_truncated(s: complex, chr: Character, x: float, tbl) -> complex:
    """sum_{1<n<=x} chi(n) Lambda(n) / (n^s log n) on Re s >= 1 (x >= 2)."""
    _check_char(chr)
    if s.real < 1:
        raise ValueError("need Re s >= 1")
    if x < 2:
        raise ValueError("need cutoff x >= 2")
    w = ps.weights_for_character(chr, tbl.primes_upto(x))
    return ps.lambda_weighted_sum(s, x, w, tbl, over_log=True)


def log_l_defect(s: complex, chr: Character, T: float, tbl) -> float:
    """|log L(s) - truncated prime sum at cutoff log^2 T| with the
    branch-tracked log (T > 1)."""
    if T <= 1:
        raise ValueError("need T > 1")
    return abs(log_l(s, chr).value - log_l_truncated(s, chr, math.log(T) ** 2, tbl))


# ---------------------------------------------------------------------------
# High-precision cross-checks (mpmath)


def dirichlet_l_mp(s, chr: Character, dps: int = 30):
    """mpmath Hurwitz-based L, for cross-validation at modest heights."""
    _check_char(chr)
    q = chr.modulus
    with mp.workdps(dps):
        sm = mp.mpc(s)
        tot = mp.mpc(0)
        for a in range(1, q + 1):
            ang = chr.angle(a)
            if ang is None:
                continue
            c = mp.expjpi(2 * mp.mpf(ang.numerator) / ang.denominator)
            tot += c * mp.zeta(sm, mp.mpf(a) / q)
        return tot * mp.power(q, -sm)
