"""Zeros of zeta' in rectangles: argument-principle counting plus Newton.

count_zeros walks the rectangle boundary tracking the continuous argument of
zeta', refining steps until every increment is below pi/2; the winding number
then equals the zero count (the double pole at s = 1 contributes -2 when it
lies strictly inside, and the count is corrected for it).  find_critical_points
seeds a grid and runs Newton from every seed in lockstep, one batched
zeta'/zeta'' evaluation per step, and certifies each distinct zero once by an
independent high-precision residual.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from . import lfengine

MAX_POINTS = 10**6  # the most points a seed grid (so any boundary side) or a scan may have
_NEWTON_STEPS = 40  # Newton's iteration cap per seed
_NEWTON_CHUNK = 4096  # seeds per lockstep Newton batch
_RESIDUAL_DPS = 35  # working digits of the mpmath residual that certifies a zero
# Left of this sigma zeta' is not trusted: at -0.9 it is within 1e-11 relative
# of mpmath for 0 <= t <= 1e3, at -29.5 it is off by 2e22 relative
SIGMA_FLOOR = -0.9


class BoundaryZeroSuspected(RuntimeError):
    """A zero (or pole) of zeta' appears to sit on the rectangle boundary."""


@dataclass(frozen=True)
class SearchRect:
    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float
    grid_resolution: float = 0.25

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma_min, self.sigma_max, self.t_min, self.t_max))):
            raise ValueError("the rectangle's bounds must be finite")
        if not self.sigma_min < self.sigma_max:
            raise ValueError("need sigma_min < sigma_max")
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")
        if not 0 < self.grid_resolution < math.inf:
            raise ValueError("grid_resolution must be positive and finite")
        sides = (self.sigma_max - self.sigma_min, self.t_max - self.t_min)
        if (max(sides) / self.grid_resolution > MAX_POINTS
                or math.prod(_steps(x, self.grid_resolution) + 1 for x in sides) > MAX_POINTS):
            raise ValueError(f"grid_resolution {self.grid_resolution:g} gives this rectangle "
                             f"more than MAX_POINTS = {MAX_POINTS} seed points")

    def contains(self, s: complex) -> bool:
        return (self.sigma_min <= s.real <= self.sigma_max
                and self.t_min <= s.imag <= self.t_max)

    def corners(self) -> list[complex]:
        return [
            complex(self.sigma_min, self.t_min),
            complex(self.sigma_max, self.t_min),
            complex(self.sigma_max, self.t_max),
            complex(self.sigma_min, self.t_max),
        ]


@dataclass(frozen=True)
class CriticalPoint:
    beta_prime: float
    gamma_prime: float
    residual: float
    isolating_box: SearchRect

    @property
    def point(self) -> complex:
        return complex(self.beta_prime, self.gamma_prime)


class CriticalPointList(list):
    """List of CriticalPoint and the argument-principle count it should match."""

    expected_count: int = 0

    @property
    def complete(self) -> bool:
        return len(self) == self.expected_count


def _steps(length: float, res: float) -> int:
    """Grid steps along a side (seed grid rows and columns, boundary samples)."""
    return max(2, math.ceil(length / res))


def _pole_on_boundary(rect: SearchRect, eps: float = 1e-9) -> bool:
    on_sigma = abs(rect.sigma_min - 1) < eps or abs(rect.sigma_max - 1) < eps
    on_t = abs(rect.t_min) < eps or abs(rect.t_max) < eps
    in_sigma = rect.sigma_min - eps <= 1 <= rect.sigma_max + eps
    in_t = rect.t_min - eps <= 0 <= rect.t_max + eps
    return (on_sigma and in_t) or (on_t and in_sigma)


def _pole_inside(rect: SearchRect, margin: float = 1e-9) -> bool:
    return (
        rect.sigma_min + margin < 1 < rect.sigma_max - margin
        and rect.t_min + margin < 0 < rect.t_max - margin
    )


def _shrink(rect: SearchRect) -> SearchRect:
    """Pull every edge inward by resolution/10 (boundary-zero evasion)."""
    d = rect.grid_resolution / 10.0
    return replace(
        rect,
        sigma_min=rect.sigma_min + d,
        sigma_max=rect.sigma_max - d,
        t_min=rect.t_min + d,
        t_max=rect.t_max - d,
    )


def _zp(s: complex) -> complex:
    return lfengine.zeta_prime(s).value


def _arg_increment(s1, s2, f1, f2, depth=0) -> float:
    """Continuous-arg increment of zeta' from s1 to s2, refined < pi/2."""
    d = cmath.phase(f2 / f1)
    if abs(d) < math.pi / 2:
        return d
    if depth >= 42:
        raise BoundaryZeroSuspected(f"argument jump near {s1}..{s2}")
    sm = (s1 + s2) / 2
    fm = _zp(sm)
    if abs(fm) < 1e-13:
        raise BoundaryZeroSuspected(f"|zeta'| ~ 0 at boundary point {sm}")
    return _arg_increment(s1, sm, f1, fm, depth + 1) + _arg_increment(
        sm, s2, fm, f2, depth + 1
    )


def _winding(rect: SearchRect) -> int:
    corners = rect.corners()
    corners.append(corners[0])
    total = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        n = _steps(abs(b - a), rect.grid_resolution)
        pts = [a + (b - a) * i / n for i in range(n + 1)]
        vals = lfengine.zeta_prime(np.array(pts)).value.tolist()
        for (s1, s2, f1, f2) in zip(pts[:-1], pts[1:], vals[:-1], vals[1:]):
            if abs(f1) < 1e-13 or abs(f2) < 1e-13:
                raise BoundaryZeroSuspected(f"|zeta'| ~ 0 near {s1}")
            total += _arg_increment(s1, s2, f1, f2)
    return round(total / (2 * math.pi))


def count_zeros(rect: SearchRect) -> int:
    """Number of zeros of zeta' in the rectangle by the argument principle.

    The double pole at s = 1 contributes -2 to the boundary winding; when the
    pole lies strictly inside the returned count is winding + 2.  A pole or
    zero sitting on the boundary triggers up to three inward perturbations of
    resolution/10 before giving up.  A rectangle reaching left of SIGMA_FLOOR
    is rejected with ValueError.
    """
    if rect.sigma_min < SIGMA_FLOOR:
        raise ValueError(f"need sigma_min >= SIGMA_FLOOR = {SIGMA_FLOOR} (got {rect.sigma_min:g})")
    r = rect
    for attempt in range(3):
        if _pole_on_boundary(r):
            r = _shrink(r)
            continue
        try:
            w = _winding(r)
            return w + (2 if _pole_inside(r) else 0)
        except BoundaryZeroSuspected:
            r = _shrink(r)
    raise BoundaryZeroSuspected(
        "zero or pole of zeta' on the boundary after 3 perturbations"
    )


def _newton_lockstep(seeds: np.ndarray) -> np.ndarray:
    """Newton for zeta' from every seed in lockstep: one zeta'/zeta'' batch
    per step for the seeds still live.  Returns each seed's converged point,
    nan where the seed was dropped.

    A seed is dropped when it leaves SIGMA_FLOOR < sigma < 10, |t| < 1e4 or
    comes within 1e-6 of s = 1, when zeta'' = 0, or after _NEWTON_STEPS steps;
    it has converged when |step| < 1e-13.  Outside that box the evaluator is
    off its sweet spot.  Right of sigma = 10, zeta'(s) = -log 2 * 2^-s *
    (1 + O((2/3)^sigma)), so each step adds about 1/log 2 to sigma and an
    iterate there never returns.
    """
    out = np.full(len(seeds), complex(np.nan, np.nan))
    s, live = seeds, np.arange(len(seeds))
    for _ in range(_NEWTON_STEPS):
        keep = ((SIGMA_FLOOR < s.real) & (s.real < 10) & (np.abs(s.imag) < 1e4)
                & (np.abs(s - 1) >= 1e-6))
        s, live = s[keep], live[keep]
        if not len(s):
            break
        _, fp, fpp = (v.value for v in lfengine.zeta_orders(s, 2))
        keep = fpp != 0
        step = fp[keep] / fpp[keep]
        s, live = s[keep] - step, live[keep]
        done = np.abs(step) < 1e-13
        out[live[done]] = s[done]
        s, live = s[~done], live[~done]
    return out


SAME_ZERO = 1e-9  # converged Newton copies of one zero agree to ~1e-14


def _residual_mp(s: complex) -> float:
    with mp.workdps(_RESIDUAL_DPS):
        return float(abs(mp.zeta(mp.mpc(s), derivative=1)))


def find_critical_points(rect: SearchRect) -> CriticalPointList:
    """Newton-refined zeros of zeta' in the rectangle.

    Grid seeds at the rect resolution run Newton in lockstep, _NEWTON_CHUNK
    seeds per batch; in seed order (sigma, then t), each distinct converged
    zero is certified by an independent mpmath residual at 35 digits.  Newton stops
    at |step| < 1e-13, so a point within SAME_ZERO of a certified zero is a
    copy of it and is skipped.  If the number of distinct zeros does not
    match count_zeros the list is returned with ``complete = False``.
    """
    n_expected = count_zeros(rect)
    res = rect.grid_resolution
    found: list[CriticalPoint] = []
    n_sig = _steps(rect.sigma_max - rect.sigma_min, res)
    n_t = _steps(rect.t_max - rect.t_min, res)
    i, j = np.divmod(np.arange((n_sig + 1) * (n_t + 1)), n_t + 1)
    seeds = (rect.sigma_min + (rect.sigma_max - rect.sigma_min) * i / n_sig).astype(complex)
    seeds.imag = rect.t_min + (rect.t_max - rect.t_min) * j / n_t
    seeds = seeds[~(np.abs(seeds - 1) < 1e-3)]  # pole-excluded disk
    for lo in range(0, len(seeds), _NEWTON_CHUNK):
        for z in _newton_lockstep(seeds[lo:lo + _NEWTON_CHUNK]).tolist():
            if not rect.contains(z):  # also a dropped (nan) seed
                continue
            if abs(z - 1) < 1e-3:
                continue
            if any(abs(cp.point - z) < SAME_ZERO for cp in found):
                continue
            residual = _residual_mp(z)
            if residual > 1e-8:
                continue
            box = SearchRect(
                sigma_min=z.real - res, sigma_max=z.real + res,
                t_min=z.imag - res, t_max=z.imag + res,
                grid_resolution=res / 4,
            )
            found.append(CriticalPoint(z.real, z.imag, residual, box))
    found.sort(key=lambda c: (c.gamma_prime, c.beta_prime))
    out = CriticalPointList(found)
    out.expected_count = n_expected
    return out


def write_csv(points, path: str) -> None:
    """CSV export: beta_prime, gamma_prime, residual, box bounds (17 sig)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "beta_prime", "gamma_prime", "residual",
            "box_sigma_min", "box_sigma_max", "box_t_min", "box_t_max",
        ])
        for cp in points:
            b = cp.isolating_box
            w.writerow([
                f"{v:.17g}"
                for v in (
                    cp.beta_prime, cp.gamma_prime, cp.residual,
                    b.sigma_min, b.sigma_max, b.t_min, b.t_max,
                )
            ])
