"""The two summation kernels: weighted Dirichlet sums and Hurwitz partial sums.

numpy sums pairwise, so rounding error grows like log n rather than n;
tests/test_kernels.py checks both kernels against math.fsum and mpmath.
Callers reach these through the module attribute
(``kernels.dirichlet_sum(...)``), never a ``from`` import, so that a wrapper
installed on the attribute sees every call.
"""

import numpy as np


def dirichlet_sum(logn, coeff, s):
    """Sum of coeff[i] * exp(-s * logn[i])."""
    if len(logn) == 0:
        return 0j
    return complex(np.sum(np.asarray(coeff) * np.exp(-s * np.asarray(logn))))


def hurwitz_main_sum(a, n_terms, s, deriv):
    """Sums over n < n_terms of (-log(n+a))^d * (n+a)^(-s), d = 0..deriv.

    One exp pass serves every order; returns the deriv + 1 sums as a tuple.
    """
    if n_terms <= 0:
        return (0j,) * (deriv + 1)
    u = np.log(np.arange(n_terms, dtype=np.float64) + a)
    terms = np.exp(-s * u)
    sums = [complex(terms.sum())]
    if deriv >= 1:
        sums.append(complex((terms * -u).sum()))
    if deriv >= 2:
        sums.append(complex((terms * (u * u)).sum()))
    return tuple(sums)
