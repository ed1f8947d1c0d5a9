import os
import random
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from quasimodules import builtin, canonical, principal_ideal
from quasimodules.errors import FactorizationFailed, NotClosed
from quasimodules.galois import (
    _require_zero_distributive,
    factor_carrier_mask,
    is_closed,
    principal_perp,
    product_mask,
    with_companions,
)


# the bundled quasimodule specs of the benchmark
SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "specs")


def qm_from(lattice_name, factor_gens):
    """Build a canonical quasimodule over a builtin lattice.

    Each factor generator is an element label, or "*" for the whole lattice.
    """
    lattice = builtin(lattice_name)
    factors = [principal_ideal(lattice, lattice.top if g == "*" else lattice.index(g))
               for g in factor_gens]
    return canonical(lattice, factors)


# For the slab-shift kernel tests: ex1; M3 x [0,a], which is not
# 0-distributive; N5^4, the largest carrier (625 vectors)
KERNEL_INSTANCES = (qm_from("n5", ["*", "a"]), qm_from("m3", ["*", "a"]),
                    qm_from("n5", ["*"] * 4))


# ex1, M3 x [0,a] (not 0-distributive), chain_3^2, boolean_2 x [0,a], fig5,
# chain_4^2 (16 vectors, the largest walked size) and N5 x [0,b]
SUBSET_INSTANCES = {"ex1": ("n5", ["*", "a"]), "m3xa": ("m3", ["*", "a"]),
                    "chain3sq": ("chain_3", ["*", "*"]),
                    "bool2xa": ("boolean_2", ["*", "a"]), "fig5": ("fig5", ["*"]),
                    "chain4sq": ("chain_4", ["*", "*"]), "n5xb": ("n5", ["*", "b"])}


def poisoned(lattice, gens):
    """The instance unpoisoned, then with the zero bit of each singleton
    companion flipped, then with 2m seeded other bits flipped, each seeded
    through with_companions: the companion map stays a meet of its singleton
    entries, but the relation may be broken. Yields (poison, qm)."""
    plain = qm_from(lattice, gens)
    size, zero = plain.size, plain.zero
    others = [q for q in range(size) if q != zero]
    rng = random.Random(size)
    poisons = [*((p, zero) for p in range(size)),
               *((rng.randrange(size), rng.choice(others)) for _ in range(2 * size))]
    yield None, plain
    for p, q in poisons:
        yield (p, q), with_companions(plain, {p: principal_perp(plain, p) ^ 1 << q})


class FactorizationWitness(NamedTuple):
    """Per-factor closed components whose product reconstructs a closed set;
    `factor_masks` holds one element bitmask per factor."""

    qm: object
    factor_masks: tuple

    def factor_labels(self):
        return tuple(self.qm.lattice.labels(m) for m in self.factor_masks)


def factorize_closed(qm, sub):
    """The former library factorization, kept as the oracle of Theorem 3:
    split a closed subquasimodule into its coordinate projections, each of
    which must be closed in its one-factor quasimodule, and whose product
    must reconstruct the input. Raises NotClosed on a set that is not
    closed and FactorizationFailed if either obligation fails."""
    _require_zero_distributive(qm)
    if not is_closed(qm, sub.members):
        raise NotClosed(f"{sub} is not closed")
    masks = []
    for i in range(len(qm.factors)):
        em = qm.project(sub.members, i)
        fqm = qm.factor_qm(i)
        if not is_closed(fqm, factor_carrier_mask(fqm, em)):
            raise FactorizationFailed(
                f"projection to factor {i} is not closed: {qm.lattice.labels(em)}")
        masks.append(em)
    if product_mask(qm, masks) != sub.members:
        raise FactorizationFailed("projections do not reconstruct the closed set")
    return FactorizationWitness(qm, tuple(masks))


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
