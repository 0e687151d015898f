import dataclasses
import math
import random
from fractions import Fraction

import pytest

from lcrit import auxseries as aux
from lcrit import diophantine as dio
from lcrit.characters import enumerate_characters


@pytest.fixture(autouse=True)
def _cold_prefix_cache():
    # a monkeypatched _lll or swap cap must neither read nor leave a cached prefix
    dio._reduced_prefix.cache_clear()
    yield
    dio._reduced_prefix.cache_clear()


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


@pytest.mark.parametrize("primes", [(3,), (2,)])
def test_find_tau_needs_prime_two_and_one_more(primes):
    tg = dio.AngleTargets(primes, (Fraction(1, 4),), 0.01)
    with pytest.raises(ValueError):
        dio.find_tau(tg)


def test_tampered_certificate_fails_revalidation(tmp_path):
    tg = dio.AngleTargets((2, 3), (Fraction(1, 3), Fraction(1, 5)), 0.05)
    cert = dio.find_tau(tg)
    bad = dataclasses.replace(cert, defects=(0.0,) * len(cert.defects))
    assert not dio.revalidate(bad)


def test_certificate_facts_follow_its_defects():
    tg = dio.AngleTargets((2, 3, 5), (Fraction(1, 3), Fraction(1, 5), Fraction(1, 2)), 0.05)
    cert = dio.find_tau(tg)
    assert cert.success
    worse = dataclasses.replace(cert, defects=(0.01, 0.3, 0.02))
    assert worse.max_defect == 0.3 and not worse.success
    assert worse.weight_defects == tuple(2 * math.sin(math.pi * d) for d in (0.01, 0.3, 0.02))
    assert dataclasses.replace(worse, tolerance=0.3).success
    assert worse.to_json()["max_defect"] == 0.3 and not worse.to_json()["success"]


def test_targets_from_scheme_tolerance(tbl):
    chr = enumerate_characters(5)[1]
    scheme = aux.make_scheme("B", chr, 1e4, tbl, delta=0.75)
    tg = dio.targets_from_scheme(scheme, tbl)
    assert tg.tolerance == pytest.approx(1.0 / math.log(1e4) ** 2)
    loose = dio.targets_from_scheme(scheme, tbl, 0.05)
    assert loose == dio.AngleTargets(tg.primes, tg.targets, 0.05)
    assert len(tg.primes) == len(tg.targets)
    assert tg.primes[0] == 2
    # targets are the negated weight angles mod 1
    for p, t in list(zip(tg.primes, tg.targets))[:20]:
        assert t == (-scheme.prime_weight_angle(p)) % 1


def test_find_tau_certifies_q4_bprime(tbl):
    # the real character mod 4 puts exact |mu| = 1/2 ties in this lattice
    scheme = aux.make_scheme("Bprime", enumerate_characters(4)[1], 70.0, tbl)
    tg0 = dio.targets_from_scheme(scheme, tbl)
    cert = dio.find_tau(dio.AngleTargets(tg0.primes, tg0.targets, 0.02))
    assert cert.success
    assert dio.revalidate(cert)


def _small_targets():
    primes = (2, 3, 5, 7, 11)
    targets = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3))
    return dio.AngleTargets(primes, targets, 0.02)


def test_find_tau_without_candidate_raises_typed_error(monkeypatch):
    # the unreduced basis has no row carrying both the target and a k != 0
    calls = []
    monkeypatch.setattr(dio, "_lll", lambda rows, bits: calls.append(len(rows)) or rows)
    for _ in range(2):
        with pytest.raises(dio.LatticeSearchError) as info:
            dio.find_tau(_small_targets())
        err = info.value
        assert isinstance(err, RuntimeError)
        assert err.dim == 6
        assert err.bits > 0
    # one prefix reduction for the primes and tolerance, then one embedding
    # per search: the repeat search does not reduce the prefix again
    assert calls == [5, 6, 6]


def test_reduction_past_swap_cap_raises_typed_error(monkeypatch):
    monkeypatch.setattr(dio, "_MAX_SWAPS", 3)
    with pytest.raises(dio.LatticeSearchError) as info:
        dio.find_tau(_small_targets())
    err = info.value
    assert err.dim == 6
    assert "swaps" in err.reason


# ---------------------------------------------------------------------------
# _lll against an exact oracle


def _exact_gram_schmidt(rows):
    """mu and squared Gram-Schmidt norms in exact rationals."""
    star, c = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, star[j])) / c[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        c.append(sum(a * a for a in v))
    return mu, c


def _transform_and_det(basis, reduced):
    """T with T basis = reduced, and det T, by exact Gauss-Jordan on basis^T."""
    n = len(basis)
    # solve basis^T T^T = reduced^T column block by column block
    aug = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(reduced[j][i]) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    t = [[aug[j][n + i] for j in range(n)] for i in range(n)]  # row i of T
    det, m = Fraction(1), [row[:] for row in t]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return t, Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return t, det


def _random_lattice(rng, n):
    bits = rng.randint(8, 150)
    return [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]


def _kannan_lattice(rng, n, s=None):
    """find_tau's shape: n - 2 scaled reals, a unit column and a target row."""
    s = s or 1 << rng.randint(40, 148)
    reals = [rng.randrange(s) for _ in range(n - 2)]
    target = [rng.randrange(s) for _ in range(n - 2)]
    rows = [reals + [1000, 0]]
    for i in range(n - 2):
        rows.append([s if j == i else 0 for j in range(n - 2)] + [0, 0])
    rows.append(target + [0, s >> rng.randint(3, 12)])
    return rows


@pytest.mark.parametrize("shape, n", [(_random_lattice, n) for n in range(2, 13)]
                         + [(_kannan_lattice, n) for n in range(3, 13)])
def test_lll_against_exact_oracle(shape, n):
    rng = random.Random(1000 * n + (shape is _kannan_lattice))
    basis = shape(rng, n)
    reduced = dio._lll(basis, dio._bits(basis))
    # the same lattice: an integral change of basis with determinant +-1
    t, det = _transform_and_det(basis, reduced)
    assert all(v.denominator == 1 for row in t for v in row)
    assert abs(det) == 1
    mu, c = _exact_gram_schmidt(reduced)
    assert all(abs(mu[i][j]) <= 0.5 + 1e-9 for i in range(n) for j in range(i))
    delta = Fraction(99, 100)
    assert all(c[k] >= (delta - mu[k][k - 1] ** 2) * c[k - 1] for k in range(1, n))


def _wide_kannan_lattice(rng, n):
    """_kannan_lattice with 520-bit entries, so that _lll scales its floats."""
    return _kannan_lattice(rng, n, s=1 << 520)


@pytest.mark.parametrize("shape, n", [(_random_lattice, n) for n in range(2, 13)]
                         + [(_kannan_lattice, n) for n in range(3, 13)]
                         + [(_wide_kannan_lattice, 8)])
def test_split_reduction_equals_whole(shape, n):
    # find_tau reduces the prefix once and embeds the last row against it;
    # with the whole lattice's scale that gives the whole reduction row for row
    rng = random.Random(1000 * n + (shape is _kannan_lattice))
    basis = shape(rng, n)
    bits = dio._bits(basis)
    if shape is _wide_kannan_lattice:
        assert bits > 500
    split = dio._lll(dio._lll(basis[:-1], bits) + [basis[-1]], bits)
    assert split == dio._lll(basis, bits)


def test_find_tau_same_certificate_on_warm_prefix(tbl):
    # perfbench's tau_chain case q = 7, scheme B, x = 70, tolerance 0.02; the
    # pinned k and max_defect are those of the whole-lattice reduction
    scheme = aux.make_scheme("B", enumerate_characters(7)[1], 70.0, tbl)
    tg0 = dio.targets_from_scheme(scheme, tbl)
    tg = dio.AngleTargets(tg0.primes, tg0.targets, 0.02)
    cold = dio.find_tau(tg)
    warm = dio.find_tau(tg)
    assert dio._reduced_prefix.cache_info().hits == 1
    for cert in (cold, warm):
        assert cert.k == -4292017269430676462305162818281257821
        assert cert.max_defect == 0.004742303916413649
    assert warm.tau_str == cold.tau_str
