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
from typing import NamedTuple, Sequence

import mpmath as mp
import numpy as np

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


# A batch is evaluated in sub-batches of one cutoff N and one pole branch, of
# at most _BATCH_TERMS // N points each, so the main sums' (points x N) term
# blocks stay bounded
_BATCH_TERMS = 2**18


def _hurwitz_reg(s, shifts: Sequence[float], deriv: int = 0) -> list[list[ComplexEval]]:
    """R(s, a) = zeta(s, a) - 1/(s-1) and its s-derivatives 0..deriv, for
    each shift a in ``shifts``: one list per shift, indexed by order.

    s is one complex point, evaluated in CPython arithmetic, or a 1-D numpy
    array of points, whose ComplexEvals hold arrays shaped like s.  One point
    gives the same values alone as inside any batch; a batch agrees with
    per-point calls to within rounding (numpy's complex products and
    quotients may round differently from CPython's).
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1, or 2")
    if not isinstance(s, np.ndarray):
        s = complex(s)
        return _euler_maclaurin(s, _cutoff(s.imag), abs(1.0 - s) < 0.25, shifts, deriv,
                                cmath.exp, abs)
    s = np.asarray(s, dtype=np.complex128)
    cutoff = np.maximum(EULER_MACLAURIN_CUTOFF, (np.abs(s.imag) / 3).astype(np.int64) + 20)
    near = np.abs(1.0 - s) < 0.25
    out = [[ComplexEval(np.empty(s.shape, np.complex128), np.empty(s.shape))
            for _ in range(deriv + 1)] for _ in shifts]
    for N, branch in set(zip(cutoff.tolist(), near.tolist())):
        group = np.flatnonzero((cutoff == N) & (near == branch))
        size = max(1, _BATCH_TERMS // N)
        for lo in range(0, len(group), size):
            idx = group[lo:lo + size]
            sub = _euler_maclaurin(s[idx], N, branch, shifts, deriv,
                                   np.exp, lambda x: np.abs(x).max())
            for shift_out, shift_sub in zip(out, sub):
                for o, r in zip(shift_out, shift_sub):
                    o.value[idx], o.error_radius[idx] = r.value, r.error_radius
    return out


def _euler_maclaurin(s, N: int, near_pole: bool, shifts, deriv: int, exp, absmax):
    """_hurwitz_reg at s (one point, or an array sharing N and the pole
    branch), with ``exp`` and ``absmax`` (the largest modulus) for its type.

    Euler-Maclaurin with N main terms and M Bernoulli corrections:

      zeta(s,a) = sum_{n<N} (n+a)^{-s} + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
                  + sum_{k=1..M} B_{2k}/(2k)! * P_k(s) * (N+a)^{-(s+2k-1)}

    with P_k(s) = s(s+1)...(s+2k-2).  N and B_{2k}/(2k)! * P_k^(d)(s) depend
    on s only and are built once per call; each shift takes one exp,
    (N+a)^{-s}, and sums the corrections by Horner's rule in w = (N+a)^{-2}.
    Near s = 1 (``near_pole``: |1 - s| < 0.25) the pole term
    (N+a)^{1-s}/(s-1) minus 1/(s-1) is expanded in a series in eps = 1 - s
    so that R and its derivatives stay finite there.
    """
    # B_2k/(2k)! (P_k, P_k', P_k'') for k = M..1, by the rising-factorial
    # recurrence P_k = P_{k-1} q with q = (s+2k-3)(s+2k-2) and the product
    # rule, so no step divides by s+j (s = 0, -1, ... are ordinary points)
    P, dP, ddP = s, 1.0 + 0j, 0j  # P_1(s) = s
    c0, c1, c2 = [_BK[1] * P], [_BK[1] * dP], [0j]
    for k in range(2, BERNOULLI_TERMS + 1):
        q, dq = (s + (2 * k - 3)) * (s + (2 * k - 2)), 2.0 * s + (4 * k - 5)
        ddP = ddP * q + 2.0 * (dP * dq + P)
        dP = dP * q + P * dq
        P = P * q
        c0.append(_BK[k] * P)
        c1.append(_BK[k] * dP)
        c2.append(_BK[k] * ddP)
    cols = [c[::-1] for c in (c0, c1, c2)[: deriv + 1]]
    eps = 1.0 - s
    out = []
    for a in shifts:
        main = kernels.hurwitz_main_sum(float(a), N, s, deriv)
        u = math.log(N + a)
        base = exp(-s * u)  # (N+a)^{-s}
        # regularized pole part: (N+a)^{1-s}/(s-1) - 1/(s-1)
        if near_pole:
            # series in eps: R1 = -sum_{j>=1} eps^{j-1} u^j / j!; step m adds
            # the eps^m terms of R1, R1' and R1'' (no dividing by eps)
            r1 = [0j, 0j, 0j]
            epspow = 1.0 + 0j  # eps^m
            f1, f2, f3 = u, u * u / 2.0, u**3 / 6.0  # u^j / j! for j = m+1, m+2, m+3
            for m in range(200):
                terms = (-epspow * f1, (m + 1) * epspow * f2, -(m + 1) * (m + 2) * epspow * f3)
                r1 = [r + x for r, x in zip(r1, terms)]
                if m > 2 and max(map(absmax, terms)) < 1e-30:
                    break
                epspow *= eps
                f1, f2, f3 = f2, f3, f3 * (u / (m + 4))
        else:
            sm1 = s - 1.0
            term1 = (N + a) * base / sm1  # (N+a)^{1-s}/(s-1)
            g = -u - 1.0 / sm1
            r1 = [term1 - 1.0 / sm1, term1 * g + 1.0 / sm1**2,
                  term1 * (g * g + 1.0 / sm1**2) - 2.0 / sm1**3]
        # S_d = sum_k B_2k/(2k)! P_k^(d) (N+a)^{-(s+2k-1)}: (N+a)^{-(s+1)} times
        # a Horner sum in w = (N+a)^{-2}
        w, scale, S = (N + a) ** -2.0, base / (N + a), [0j, 0j, 0j]
        for d, col in enumerate(cols):
            acc = 0j
            for c in col:
                acc = acc * w + c
            S[d] = acc * scale
        last = abs(cols[0][0] * scale) * w ** (BERNOULLI_TERMS - 1)
        # d/ds of (N+a)^{-s} brings down -u
        tail = (S[0], S[1] - u * S[0], S[2] - 2.0 * u * S[1] + u * u * S[0])
        half = 0.5 * base  # the half term (N+a)^{-s}/2
        halves = (half, -u * half, u * u * half)
        out.append([ComplexEval(main[d] + r1[d] + halves[d] + tail[d],
                                (2.0 * last + 1e-15 * (abs(main[d]) + abs(r1[0]) + N * 1e-16))
                                * (u + 1) ** d)
                    for d in range(deriv + 1)])
    return out


# ---------------------------------------------------------------------------
# Riemann zeta and derivatives


def zeta_orders(s, deriv: int) -> list[ComplexEval]:
    """zeta^(d)(s) for d = 0..deriv: R(s, 1) plus the pole part's derivatives.

    s is one complex point or a 1-D numpy array of points (see _hurwitz_reg);
    a batch with any point at the pole raises like one point does.
    """
    if np.any(abs(s - 1.0) < 1e-12):
        raise ZetaPoleError("zeta and its derivatives have a pole at s = 1")
    sm1 = s - 1.0
    pole = (1.0 / sm1, -1.0 / sm1**2, 2.0 / sm1**3)
    return [ComplexEval(r.value + p, r.error_radius)
            for r, p in zip(_hurwitz_reg(s, (1.0,), deriv)[0], pole)]


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
    """L^(d)(s, chi) for d = 0..deriv (0 or 1), from one Hurwitz call.

    L = q^{-s} T with T = sum_a chi(a) R(s, a/q); the product rule gives
    L' = q^{-s} (T' - T log q).
    """
    _check_char(chr)
    if deriv not in (0, 1):
        raise ValueError("deriv must be 0 or 1")
    q = chr.modulus
    coeff = chr.coeff_array()
    cs, shifts = zip(*[(coeff[a % q], a / q) for a in range(1, q + 1) if coeff[a % q] != 0])
    hs = _hurwitz_reg(s, shifts, deriv)
    tot = [sum(c * h[d].value for c, h in zip(cs, hs)) for d in range(deriv + 1)]
    err = [sum(abs(c) * h[d].error_radius for c, h in zip(cs, hs)) for d in range(deriv + 1)]
    lq = math.log(q)
    qs = cmath.exp(-complex(s) * lq)
    vals = [tot[0], tot[1] - lq * tot[0]] if deriv else tot
    # L' allows for rounding in its log q * T term
    return [ComplexEval(qs * v, abs(qs) * (e + (lq * 1e-14 * abs(tot[0]) if d else 0.0)))
            for d, (v, e) in enumerate(zip(vals, err))]


def dirichlet_l(s: complex, chr: Character, deriv: int = 0) -> ComplexEval:
    """L(s, chi) or L'(s, chi) for non-principal chi.

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


def log_l_truncated(s: complex, chr: Character, x: float, tbl, phases=None) -> complex:
    """sum_{1<n<=x} chi(n) Lambda(n) / (n^s log n) on Re s >= 1 (x >= 2).

    With ``phases`` = auxseries.shift_phases(tau, y, tbl) for some y >= x,
    the sum is taken at s + i tau instead: the shift is one more prime weight.
    """
    _check_char(chr)
    if s.real < 1:
        raise ValueError("need Re s >= 1")
    if x < 2:
        raise ValueError("need cutoff x >= 2")
    w = ps.weights_for_character(chr, tbl.primes_upto(x))
    if phases is not None:
        w = w * phases[: len(w)]
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
