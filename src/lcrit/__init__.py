"""lcrit: extreme values of Dirichlet L-functions at zeros of zeta'.

Numerical companion toolkit: exact Dirichlet characters, Euler-Maclaurin
L-function evaluation, prime-sum approximations, piecewise-weighted
auxiliary Dirichlet polynomials, constructive simultaneous Diophantine
approximation of prime angles, a zeta' zero finder, and theorem-constant
comparison scans.
"""

from .characters import Character, enumerate_characters, primitive_characters
from .lfengine import dirichlet_l, log_l, zeta, zeta_prime
from .primesums import PrimeTable, sieve
from .scanner import ExtremeBounds, theorem_bounds

__version__ = "0.1.0"

# numpy is the only kernel backend; the constant stays for reports that name it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "Character",
    "ExtremeBounds",
    "PrimeTable",
    "__version__",
    "dirichlet_l",
    "enumerate_characters",
    "log_l",
    "primitive_characters",
    "sieve",
    "theorem_bounds",
    "zeta",
    "zeta_prime",
]
