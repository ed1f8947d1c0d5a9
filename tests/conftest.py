import pytest
from hypothesis import strategies as st

from quasimodules import builtin, canonical, principal_ideal


def qm_from(lattice_name, factor_gens):
    """Build a canonical quasimodule over a builtin lattice.

    Each factor generator is an element label, or "*" for the whole lattice.
    """
    lattice = builtin(lattice_name)
    factors = [principal_ideal(lattice, lattice.top if g == "*" else lattice.index(g))
               for g in factor_gens]
    return canonical(lattice, factors)


# For the slab-shift kernel tests: ex1; M3 x [0,a], which is not
# 0-distributive; N5^4, above the table limit
KERNEL_INSTANCES = (qm_from("n5", ["*", "a"]), qm_from("m3", ["*", "a"]),
                    qm_from("n5", ["*"] * 4))


def sparse_mask(draw, qm):
    """A drawn carrier mask holding about a quarter of the vectors."""
    return draw(st.integers(0, qm.full_mask)) & draw(st.integers(0, qm.full_mask))


@pytest.fixture
def n5():
    return builtin("n5")


@pytest.fixture
def m3():
    return builtin("m3")


@pytest.fixture
def fig5():
    return builtin("fig5")


@pytest.fixture
def ex1_qm():
    return qm_from("n5", ["*", "a"])


@pytest.fixture
def m3_qm():
    return qm_from("m3", ["*", "a"])


@pytest.fixture
def fig5_qm():
    return qm_from("fig5", ["*", "*"])
