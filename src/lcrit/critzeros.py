"""Zeros of zeta' in rectangles: argument-principle counting plus Newton.

Both work on g(s) = (s-1)^2 zeta'(s) (lfengine.entire_zeta_prime), which is
entire, has the zeros of zeta' and takes g(1) = -1, so the double pole of
zeta' at s = 1 needs no case anywhere.  count_zeros continues log g around
the rectangle boundary with lfengine.log_change, the walker log_l uses too;
the winding number is the zero count.  A boundary sample whose radius cannot
tell g from 0, or a step whose phase jump survives 42 bisections, raises
lfengine.ZeroOnPath, a ValueError naming the segment: the caller moves the
boundary.  find_critical_points seeds a grid and runs Newton on g from
every seed in lockstep, one batched g/g' evaluation per step, and certifies
each distinct zero once by an independent high-precision residual of zeta'.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
        res, sides = self.grid_resolution, (self.sigma_max - self.sigma_min, self.t_max - self.t_min)
        if (max(sides) / res > MAX_POINTS
                or math.prod(lfengine.path_steps(x, res) + 1 for x in sides) > MAX_POINTS):
            raise ValueError(f"grid_resolution {res:g} gives this rectangle "
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


def count_zeros(rect: SearchRect) -> int:
    """Number of zeros of zeta' in the rectangle: the winding number of the
    entire g(s) = (s-1)^2 zeta'(s) along its boundary, by lfengine.log_change
    (ZeroOnPath where g may vanish).  A rectangle reaching left of
    SIGMA_FLOOR is rejected with ValueError.
    """
    if rect.sigma_min < SIGMA_FLOOR:
        raise ValueError(f"need sigma_min >= SIGMA_FLOOR = {SIGMA_FLOOR} (got {rect.sigma_min:g})")
    corners = rect.corners()
    change = lfengine.log_change(lambda s: lfengine.entire_zeta_prime(s, 0)[0],
                                 corners + corners[:1], rect.grid_resolution, "zeta'")
    return round(change.value.imag / (2 * math.pi))


def _newton_lockstep(seeds: np.ndarray) -> np.ndarray:
    """Newton for g = (s-1)^2 zeta' from every seed in lockstep: one g/g'
    batch per step for the seeds still live.  Returns each seed's converged
    point, nan where the seed was dropped.

    A seed is dropped when it leaves SIGMA_FLOOR < sigma < 10, |t| < 1e4,
    when g' = 0 (so at s = 1), or after _NEWTON_STEPS steps; it has
    converged when |step| < 1e-13.  Outside that box the evaluator is off
    its sweet spot.  Right of sigma = 10, g'/g = 2/(s-1) - log 2 +
    O((2/3)^sigma), so each step adds about 1/log 2 or more to sigma and an
    iterate there never returns.
    """
    out = np.full(len(seeds), complex(np.nan, np.nan))
    s, live = seeds, np.arange(len(seeds))
    for _ in range(_NEWTON_STEPS):
        keep = (SIGMA_FLOOR < s.real) & (s.real < 10) & (np.abs(s.imag) < 1e4)
        s, live = s[keep], live[keep]
        if not len(s):
            break
        g, dg = (v.value for v in lfengine.entire_zeta_prime(s, 1))
        keep = dg != 0
        step = g[keep] / dg[keep]
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
    n_sig = lfengine.path_steps(rect.sigma_max - rect.sigma_min, res)
    n_t = lfengine.path_steps(rect.t_max - rect.t_min, res)
    i, j = np.divmod(np.arange((n_sig + 1) * (n_t + 1)), n_t + 1)
    seeds = (rect.sigma_min + (rect.sigma_max - rect.sigma_min) * i / n_sig).astype(complex)
    seeds.imag = rect.t_min + (rect.t_max - rect.t_min) * j / n_t
    for lo in range(0, len(seeds), _NEWTON_CHUNK):
        for z in _newton_lockstep(seeds[lo:lo + _NEWTON_CHUNK]).tolist():
            if not rect.contains(z):  # also a dropped (nan) seed
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
