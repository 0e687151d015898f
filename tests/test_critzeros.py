import csv
import math

import numpy as np
import pytest

from lcrit import critzeros as cz
from lcrit import lfengine as lf


def test_rect_validation():
    with pytest.raises(ValueError):
        cz.SearchRect(2.0, 1.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        cz.SearchRect(0.0, 1.0, 5.0, 1.0)
    r = cz.SearchRect(0.0, 2.0, 0.0, 5.0)
    assert r.contains(1.0 + 1.0j)
    assert not r.contains(3.0 + 1.0j)


def test_rect_seed_grid_is_capped():
    # 3 x 1 at 1e-4 asks for 30,001 x 10,001 seeds; at 5e-324 the step count
    # itself overflows a float
    for res in (1e-4, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="MAX_POINTS = 1000000"):
            cz.SearchRect(0.0, 3.0, 40.0, 41.0, grid_resolution=res)
    with pytest.raises(ValueError, match="MAX_POINTS"):
        cz.SearchRect(0.0, 1.0, 0.0, 1.0, grid_resolution=1 / 1000)  # 1001 x 1001
    cz.SearchRect(0.0, 1.0, 0.0, 1.0, grid_resolution=1 / 998)  # 999 x 999 is allowed


def test_first_zero_of_zeta_prime():
    # the lowest zero of zeta' in the upper half of the critical strip
    rect = cz.SearchRect(0.5, 4.0, 20.0, 26.0, grid_resolution=0.5)
    assert cz.count_zeros(rect) == 1
    pts = cz.find_critical_points(rect)
    assert pts.complete and len(pts) == 1
    z = pts[0]
    assert z.beta_prime == pytest.approx(2.4631618694543213, abs=1e-9)
    assert z.gamma_prime == pytest.approx(23.298320492762858, abs=1e-9)
    assert z.residual < 1e-10
    assert abs(lf.zeta_prime(complex(z.beta_prime, z.gamma_prime)).value) < 1e-10


def test_empty_rectangle():
    rect = cz.SearchRect(0.5, 3.0, 0.5, 6.0, grid_resolution=0.25)
    assert cz.count_zeros(rect) == 0
    pts = cz.find_critical_points(rect)
    assert pts.complete and len(pts) == 0


def test_pole_inside_is_handled():
    # s = 1 sits strictly inside; the winding count needs the +2 correction
    rect = cz.SearchRect(0.3, 1.7, -0.6, 0.6, grid_resolution=0.2)
    n = cz.count_zeros(rect)
    # zeta' has a single real zero in this window (near s = -2.7 is outside;
    # between the pole and the trivial behaviour there are none here)
    assert n >= 0  # winding is a valid integer, no crash from the pole
    pts = cz.find_critical_points(rect)
    assert pts.complete


def test_zeros_below_axis_are_conjugates():
    rect_up = cz.SearchRect(0.5, 4.0, 20.0, 26.0, grid_resolution=0.5)
    rect_dn = cz.SearchRect(0.5, 4.0, -26.0, -20.0, grid_resolution=0.5)
    up = cz.find_critical_points(rect_up)
    dn = cz.find_critical_points(rect_dn)
    assert len(up) == len(dn) == 1
    assert up[0].beta_prime == pytest.approx(dn[0].beta_prime, abs=1e-10)
    assert up[0].gamma_prime == pytest.approx(-dn[0].gamma_prime, abs=1e-10)


def test_csv_roundtrip(tmp_path):
    rect = cz.SearchRect(0.5, 4.0, 20.0, 26.0, grid_resolution=0.5)
    pts = cz.find_critical_points(rect)
    path = tmp_path / "zeros.csv"
    cz.write_csv(pts, str(path))
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(pts)
    # 17 significant digits round-trip a float exactly
    for a, b in zip(pts, back):
        assert float(b["beta_prime"]) == a.beta_prime
        assert float(b["gamma_prime"]) == a.gamma_prime


def test_all_zeros_right_of_half():
    # every zero found in a taller window satisfies beta' > 1/2
    rect = cz.SearchRect(0.0, 4.0, 10.0, 40.0, grid_resolution=0.5)
    pts = cz.find_critical_points(rect)
    assert pts.complete and len(pts) >= 3
    assert all(p.beta_prime > 0.5 for p in pts)


def test_close_zeros_are_both_kept():
    # 0.8646+76.3628i and 1.3285+78.6624i lie 2.34 apart; each is reported
    # with its own certified residual (reference values from mpmath)
    ref = [complex(0.8646228644261132, 76.36280789646705),
           complex(1.3285155423330834, 78.66240594240666)]
    pts = cz.find_critical_points(cz.SearchRect(0.0, 3.0, 75.0, 80.0, grid_resolution=0.25))
    assert pts.complete and pts.expected_count == 2 and len(pts) == 2
    for p, z in zip(pts, ref):
        assert abs(p.point - z) < 1e-8
        assert p.residual <= 1e-8


@pytest.mark.parametrize("t_min,n_zeros", [(40.0, 1), (75.0, 2)])
def test_each_zero_certified_once(t_min, n_zeros, monkeypatch):
    calls = []
    real = cz._residual_mp

    def counted(s, *args):
        calls.append(s)
        return real(s, *args)

    monkeypatch.setattr(cz, "_residual_mp", counted)
    pts = cz.find_critical_points(cz.SearchRect(0.0, 3.0, t_min, t_min + 5.0, grid_resolution=0.25))
    assert pts.complete and len(pts) == n_zeros
    assert len(calls) == n_zeros
    assert sorted(calls, key=lambda z: z.imag) == [p.point for p in pts]


def _scalar_newton(s):
    """Reference: Newton for zeta' from one seed, one scalar evaluation per step."""
    for _ in range(cz._NEWTON_STEPS):
        if not (-0.9 < s.real < 10 and abs(s.imag) < 1e4) or abs(s - 1) < 1e-6:
            return None
        _, fp, fpp = (v.value for v in lf.zeta_orders(s, 2))
        if fpp == 0:
            return None
        step = fp / fpp
        s = s - step
        if abs(step) < 1e-13:
            return s
    return None


def _seeds(rect):
    res = rect.grid_resolution
    n_sig = max(2, math.ceil((rect.sigma_max - rect.sigma_min) / res))
    n_t = max(2, math.ceil((rect.t_max - rect.t_min) / res))
    seeds = [complex(rect.sigma_min + (rect.sigma_max - rect.sigma_min) * i / n_sig,
                     rect.t_min + (rect.t_max - rect.t_min) * j / n_t)
             for i in range(n_sig + 1) for j in range(n_t + 1)]
    return [s for s in seeds if not abs(s - 1) < 1e-3]


_STRIPS = [cz.SearchRect(0.0, 3.0, a, a + 5.0) for a in (40.0, 45.0, 75.0)]


@pytest.mark.parametrize("rect", _STRIPS + [cz.SearchRect(0.3, 1.7, -0.6, 0.6, 0.2)],
                         ids=["t40", "t45", "t75", "pole-inside"])
def test_lockstep_newton_matches_scalar_newton(rect):
    # every seed keeps its scalar outcome: dropped (nan) where the scalar
    # Newton returns None, else the same zero to within 1e-13 (numpy's complex
    # products round differently from CPython's)
    seeds = _seeds(rect)
    got = cz._newton_lockstep(np.array(seeds)).tolist()
    want = [_scalar_newton(s) for s in seeds]
    assert [g != g for g in got] == [w is None for w in want]
    assert all(abs(g - w) < 1e-13 for g, w in zip(got, want) if w is not None)


@pytest.mark.parametrize("rect", _STRIPS, ids=["t40", "t45", "t75"])
def test_strip_is_a_few_batched_evaluations(rect, monkeypatch):
    # 273 seeds run Newton in lockstep (at most 40 steps) and each boundary
    # side is sampled in one call; a scalar Newton made ~2,150 calls
    sizes = []
    real = lf.zeta_orders

    def counted(s, deriv):
        sizes.append(np.size(s))
        return real(s, deriv)

    monkeypatch.setattr(lf, "zeta_orders", counted)
    pts = cz.find_critical_points(rect)
    assert pts.complete
    assert len(sizes) <= 60
    assert max(sizes) == len(_seeds(rect)) == 273
