import pytest

from lcrit import acceptance
from lcrit import primesums as ps


@pytest.fixture(scope="session")
def tbl():
    return ps.sieve(10**6)


@pytest.fixture(scope="session")
def tbl_small():
    return ps.sieve(10**4)


@pytest.fixture(scope="session")
def tbl_large():
    # the acceptance criteria's 10^7 table, shared rather than sieved twice
    return acceptance._table(10**7)
