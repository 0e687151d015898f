import cmath
import importlib
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcrit
import lcrit.acceptance
import lcrit.critzeros
import lcrit.diophantine
import lcrit.scanner
from lcrit import auxseries as aux
from lcrit import kernels, lfengine
from lcrit import primesums as ps
from lcrit.characters import enumerate_characters


def test_backend_reported():
    assert lcrit.BACKEND == "numpy"


@given(
    n=st.integers(0, 300),
    sr=st.floats(0.5, 4.0),
    si=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_dirichlet_sum_matches_fsum(n, sr, si, seed):
    rng = np.random.default_rng(seed)
    logn = np.log(np.arange(2, n + 2, dtype=np.float64))
    coeff = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex128)
    s = complex(sr, si)
    terms = [complex(c) * cmath.exp(-s * float(u)) for c, u in zip(coeff, logn)]
    ref = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    mass = math.fsum(abs(t) for t in terms)
    assert abs(kernels.dirichlet_sum(logn, coeff, s) - ref) <= 1e-13 * (1.0 + mass)


@given(
    n=st.integers(0, 300),
    cr=st.floats(0.5, 4.0),
    ci=st.floats(-50.0, 50.0),
    r=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_dirichlet_moments_match_fsum(n, cr, ci, r, seed):
    rng = np.random.default_rng(seed)
    logn = np.log(np.arange(2, n + 2, dtype=np.float64))
    coeff = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex128)
    c = complex(cr, ci)
    moments, mass = kernels.dirichlet_moments(logn, coeff, c, r, 6)
    assert len(moments) == 7 and all(type(m) is complex for m in moments)
    v = [complex(a) * cmath.exp(-c * float(u)) for a, u in zip(coeff, logn)]
    for k, got in enumerate(moments):
        terms = [vi * (-float(u)) ** k for vi, u in zip(v, logn)]
        ref = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert abs(got - ref) <= 1e-13 * (1.0 + math.fsum(abs(t) for t in terms))
    ref_mass = math.fsum(abs(vi) * math.exp(r * float(u)) for vi, u in zip(v, logn))
    assert mass == pytest.approx(ref_mass, rel=1e-13, abs=1e-300)


@given(
    a=st.floats(0.01, 1.0),
    n=st.integers(0, 500),
    sr=st.floats(-2.0, 6.0),
    si=st.floats(-60.0, 60.0),
    deriv=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_hurwitz_main_sum_matches_mpmath(a, n, sr, si, deriv):
    s = complex(sr, si)
    got = kernels.hurwitz_main_sum(a, n, s, deriv)
    assert len(got) == deriv + 1
    for d, val in enumerate(got):
        with mp.workdps(40):
            ms = mp.mpc(sr, si)
            terms = [(-mp.log(k + mp.mpf(a))) ** d * mp.power(k + mp.mpf(a), -ms)
                     for k in range(n)]
            ref = complex(mp.fsum(terms))
            mass = float(mp.fsum(abs(t) for t in terms))
        assert abs(val - ref) <= 1e-12 * (1.0 + mass)


def test_empty_inputs():
    assert kernels.dirichlet_sum(np.empty(0), np.empty(0, complex), 2.0 + 0j) == 0j
    assert kernels.hurwitz_main_sum(0.5, 0, 2.0 + 0j, 0) == (0j,)
    assert kernels.hurwitz_main_sum(0.5, 0, 2.0 + 0j, 2) == (0j, 0j, 0j)


def test_hurwitz_main_sum_batch_is_per_point():
    # an array of points sums each row as a one-point call does, bit for bit
    s = np.array([3.0 + 0j, 0.5 + 14.1j, -0.8 - 60.0j, 2.0 + 1e3j])
    for deriv in range(3):
        got = kernels.hurwitz_main_sum(0.3, 400, s, deriv)
        for k, point in enumerate(s.tolist()):
            assert tuple(g[k] for g in got) == kernels.hurwitz_main_sum(0.3, 400, point, deriv)
    empty = kernels.hurwitz_main_sum(0.5, 0, s, 1)
    assert len(empty) == 2 and all(np.array_equal(e, np.zeros(4)) for e in empty)


def test_dirichlet_sum_simple_values():
    # 1 + 2^-2 + 3^-2 with unit coefficients
    logn = np.log(np.array([1.0, 2.0, 3.0]))
    coeff = np.ones(3, dtype=np.complex128)
    got = kernels.dirichlet_sum(logn, coeff, 2.0 + 0j)
    assert got == pytest.approx(1 + 0.25 + 1 / 9)


def test_hurwitz_sum_first_derivative_sign():
    # derivative terms carry (-log(n+a))^deriv
    val0, val1, val2 = kernels.hurwitz_main_sum(1.0, 50, 3.0 + 0j, 2)
    assert val0.real > 0 and val1.real < 0 and val2.real > 0
    # each order agrees with a pass that stops at it
    assert kernels.hurwitz_main_sum(1.0, 50, 3.0 + 0j, 0) == (val0,)
    assert kernels.hurwitz_main_sum(1.0, 50, 3.0 + 0j, 1) == (val0, val1)
    assert val0.imag == val1.imag == val2.imag == 0.0


def test_callers_reach_kernels_through_module_attribute(tbl, monkeypatch):
    # a caller that binds a kernel by `from .kernels import ...` bypasses
    # any wrapper installed on the module attribute (perfbench's tracer)
    counts = dict.fromkeys(("dirichlet_sum", "dirichlet_moments", "hurwitz_main_sum"), 0)
    for name in counts:
        def counted(*args, _real=getattr(kernels, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(kernels, name, counted)
    chr = enumerate_characters(5)[1]
    scheme = aux.make_scheme("B", chr, 1e4, tbl, delta=0.75)
    ones = np.ones(len(tbl.prime_powers(1e4).n), dtype=np.complex128)
    callers = [
        ("dirichlet_sum", lambda: ps.power_weighted_sum(2.0 + 0j, 1e4, ones, tbl)),
        ("dirichlet_sum", lambda: aux.v_series_shifted(2.0 + 0j, aux.shift_phases(0, 1e4, tbl),
                                                        1e4, tbl)),
        ("dirichlet_sum", lambda: aux.aux_series(1.0 + 0j, scheme, tbl)),
        ("dirichlet_moments", lambda: aux.aux_series_derivative(1.2 + 0j, scheme, tbl)),
        ("hurwitz_main_sum", lambda: lfengine.dirichlet_l(2.0 + 1j, chr)),
        ("hurwitz_main_sum", lambda: lfengine.zeta_orders(2.0 + 1j, 2)),
        ("hurwitz_main_sum", lambda: lcrit.critzeros.find_critical_points(
            lcrit.critzeros.SearchRect(0.5, 4.0, 20.0, 26.0, grid_resolution=0.5))),
    ]
    for kernel, call in callers:
        before = counts[kernel]
        call()
        assert counts[kernel] > before


def _kernel_calls(run):
    """(dirichlet_moments, dirichlet_sum) calls made by run()."""
    counts = dict.fromkeys(("dirichlet_moments", "dirichlet_sum"), 0)
    with pytest.MonkeyPatch.context() as mp_:
        for name in counts:
            def counted(*args, _real=getattr(kernels, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            mp_.setattr(kernels, name, counted)
        run()
    return counts["dirichlet_moments"], counts["dirichlet_sum"]


def test_disc_route_kernel_calls(monkeypatch):
    # one moment pass per scheme serves every point inside its disc; only
    # points outside it (criterion 5's W(1) cross-check) take a direct sum
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    wl = worker.WORKLOADS["aux_roots"]
    ctx = wl.setup(lcrit)[0]
    ops = wl.ops(0)
    assert len(ops) == 8
    assert _kernel_calls(lambda: [wl.run(lcrit, ctx, op) for op in ops]) == (8, 0)
    assert _kernel_calls(lcrit.acceptance.criterion_5) == (8, 8)


def test_perfbench_hooks_resolve(monkeypatch):
    # the benchmark's tracer wraps lcrit attributes by name; a target that
    # is renamed or deleted would leave its per-layer metrics reading 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        assert tr.missing == []
    finally:
        tr.uninstall()


@pytest.mark.parametrize("name", ["lscan", "zeros", "aux_roots", "tau_chain"])
def test_perfbench_workload_runs(name, monkeypatch):
    # operation 0 of each benchmark workload, run and checked as the worker
    # does it: a changed signature a workload calls fails here, not as
    # failed benchmark operations
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    with open(Path(worker.HERE) / "reference.json") as fh:
        reference = json.load(fh)
    seed = reference["lscan"]["seed"]  # the seed lscan's reference values were made at
    wl = worker.WORKLOADS[name]
    ctx = wl.setup(lcrit)[0]
    op = wl.ops(seed)[0]
    ref = worker._reference(name, seed, [op], reference)[0]
    if wl.prepare is not None:
        wl.prepare(lcrit, ctx)
    assert wl.check(lcrit, ctx, op, wl.run(lcrit, ctx, op), ref) is None
