"""The summation kernels: weighted Dirichlet sums, their Taylor moments
about a point, and Hurwitz partial sums.

numpy sums pairwise, so rounding error grows like log n rather than n;
tests/test_kernels.py checks the kernels against math.fsum and mpmath.
Callers reach these through the module attribute
(``kernels.dirichlet_sum(...)``, ``kernels.dirichlet_moments(...)``,
``kernels.hurwitz_main_sum(...)``), never a ``from`` import, so that a
wrapper installed on the attribute sees every call.
"""

import numpy as np


def dirichlet_sum(logn, coeff, s):
    """Sum of coeff[i] * exp(-s * logn[i])."""
    if len(logn) == 0:
        return 0j
    return complex(np.sum(np.asarray(coeff) * np.exp(-s * np.asarray(logn))))


def dirichlet_moments(logn, coeff, c, r, order):
    """Taylor moments of sum coeff[i] * exp(-s * logn[i]) about s = c.

    With v = coeff * exp(-c * logn), returns ([M_0, ..., M_order], mass):
    M_k = sum v * (-logn)^k, so the sum at s is sum_k M_k (s - c)^k / k!,
    and mass = sum |v| * exp(r * logn), the largest sum of |terms| on the
    disc |s - c| <= r.  One exp pass, then one multiply and reduce per k.
    """
    logn = np.asarray(logn)
    v = np.multiply(logn, -complex(c))
    np.exp(v, out=v)
    v *= coeff
    w = np.multiply(logn, r)
    mass = float(np.dot(np.abs(v), np.exp(w, out=w)))
    moments = [complex(np.sum(v))]
    for k in range(1, order + 1):
        v *= logn
        m = complex(np.sum(v))
        moments.append(-m if k % 2 else m)
    return moments, mass


def hurwitz_main_sum(a, n_terms, s, deriv):
    """Sums over n < n_terms of (-log(n+a))^d * (n+a)^(-s), d = 0..deriv.

    s is one complex point or a 1-D array of points.  One exp pass serves
    every order; returns the deriv + 1 sums as a tuple, of complex numbers
    for one point and of arrays shaped like s for an array.
    """
    batch = isinstance(s, np.ndarray)
    if n_terms <= 0:
        return (np.zeros(s.shape, np.complex128) if batch else 0j,) * (deriv + 1)
    u = np.log(np.arange(n_terms, dtype=np.float64) + a)
    terms = np.exp(-(s[:, None] if batch else s) * u)  # one row of terms per point
    sums = [np.add.reduce(terms, axis=-1)]
    if deriv >= 1:
        sums.append(np.add.reduce(terms * -u, axis=-1))
    if deriv >= 2:
        sums.append(np.add.reduce(terms * (u * u), axis=-1))
    return tuple(sums) if batch else tuple(map(complex, sums))
