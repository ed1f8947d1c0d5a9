"""Orthogonality companions, double-orthogonality closure, closed and
splitting subquasimodule lattices, and product factorization of closed sets.

The companion of a subset A is every vector orthogonal to all of A. It equals
the intersection of the companions of A's single vectors, which is how all
companion computations here are organized. The empty subset's companion is
the whole carrier (vacuous quantification).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .bitset import iter_bits
from .errors import (
    CompanionNotClosed,
    CompanionOverlap,
    EnumerationBudgetExceeded,
    FactorizationFailed,
    NotClosed,
    NotZeroDistributive,
    SplittingNotClosed,
)
from .subquasi import SubQM, SubQMLattice, all_subquasimodules, is_subquasimodule


def principal_perp(qm, p):
    """Companion bitmask of a single vector, cached on the quasimodule.

    A vector is orthogonal to p iff each coordinate meets p's coordinate in
    bottom, so the companion is the AND over coordinates i of the OR of the
    slabs coord_mask(i, e) with e ^ p_i = bottom.
    """
    cached = qm._pperp.get(p)
    if cached is not None:
        return cached
    meet = qm.lattice.meet
    b = qm.lattice.bottom
    out = qm.full_mask
    for i, x in enumerate(qm.carrier[p]):
        layer = 0
        for e in iter_bits(qm.factors[i].members):
            if meet[x][e] == b:
                layer |= qm.coord_mask(i, e)
        out &= layer
    qm._pperp[p] = out
    return out


def perp(qm, vectors):
    """Companion bitmask of a carrier subset; the empty subset gives everything."""
    mask = qm.mask(vectors)
    out = qm.full_mask
    for p in iter_bits(mask):
        out &= principal_perp(qm, p)
        if out == 1 << qm.zero:
            break
    return out


@dataclass(frozen=True)
class TaggedSet:
    """A double-companion that failed the subquasimodule laws.

    Returned instead of SubQM when some factor is not 0-distributive and the
    defect is witnessed by `violation` (same forms as is_subquasimodule).
    """

    qm: object
    members: int
    violation: tuple


def double_perp(qm, vectors):
    """The double companion of a subset, as a SubQM when the laws hold.

    With 0-distributive factors this is the least closed subquasimodule
    containing the subset. Otherwise closure under addition can fail, in
    which case the raw set is returned tagged with the violation.
    """
    dd = perp(qm, perp(qm, vectors))
    ok, witness = is_subquasimodule(qm, dd)
    if ok:
        return SubQM(qm, dd)
    return TaggedSet(qm, dd, witness)


def is_closed(qm, vectors):
    """True iff the subset equals its double companion."""
    mask = qm.mask(vectors)
    return perp(qm, perp(qm, mask)) == mask


def factor_zero_distributivity(qm):
    """Per-factor 0-distributivity of the factor sublattices.

    Returns a list of (factor index, holds, witness) where the witness is a
    triple of element indices inside the factor.
    """
    lattice = qm.lattice
    meet, join, b = lattice.meet, lattice.join, lattice.bottom
    out = []
    for i, f in enumerate(qm.factors):
        els = list(iter_bits(f.members))
        verdict = (True, None)
        for x in els:
            mx = meet[x]
            jx = join[x]
            for y in els:
                my = meet[y]
                mj = meet[jx[y]]
                for z in els:
                    if mx[z] == b and my[z] == b and mj[z] != b:
                        verdict = (False, (x, y, z))
                        break
                if not verdict[0]:
                    break
            if not verdict[0]:
                break
        out.append((i, verdict[0], verdict[1]))
    return out


def _require_zero_distributive(qm):
    for i, ok, witness in factor_zero_distributivity(qm):
        if not ok:
            labels = tuple(qm.lattice.names[e] for e in witness)
            raise NotZeroDistributive(
                f"factor {i} is not 0-distributive (witness {labels})",
                factor=i, witness=witness)


def closed_sets(qm):
    """All fixed points of the double-companion operator, as bitmasks.

    Every closed set is an intersection of single-vector companions (or the
    whole carrier), so the intersection closure of those is complete. No
    0-distributivity is needed for the set-level characterization.
    """
    # not Close-by-One: same sets, 8-15x slower (bool3.cube 0.38 s -> 5.7 s)
    base = {qm.full_mask}
    for p in range(qm.size):
        base.add(principal_perp(qm, p))
    nodes = set(base)
    frontier = sorted(base)
    while frontier:
        fresh = []
        snapshot = sorted(nodes)
        for a in frontier:
            for b in snapshot:
                c = a & b
                if c not in nodes:
                    nodes.add(c)
                    fresh.append(c)
        frontier = sorted(fresh)
    return nodes


@dataclass(frozen=True)
class ClosedLattice:
    """The complete lattice of closed subquasimodules with its involution."""

    base: SubQMLattice
    perp_map: tuple

    @property
    def qm(self):
        return self.base.qm

    @property
    def nodes(self):
        return self.base.nodes

    def __len__(self):
        return len(self.base)

    def perp_node(self, i):
        return self.perp_map[i]

    def node(self, i):
        return self.base.node(i)


def closed_subquasimodules(qm):
    """The lattice of closed subquasimodules; requires 0-distributive factors."""
    _require_zero_distributive(qm)
    nodes = closed_sets(qm)
    for mask in nodes:
        ok, witness = is_subquasimodule(qm, mask)
        if not ok:
            raise FactorizationFailed(
                f"closed set {qm.label_sets(mask)} is not a subquasimodule "
                f"despite 0-distributive factors (witness {witness})")
    base = SubQMLattice(qm, nodes,
                        join_closure=lambda m: perp(qm, perp(qm, m)),
                        kind="closed")
    perp_map = []
    for mask in base.nodes:
        pm = perp(qm, mask)
        if pm not in base.index:
            raise CompanionNotClosed(
                f"companion of closed set {qm.label_sets(mask)} is not closed")
        perp_map.append(base.index[pm])
    return ClosedLattice(base, tuple(perp_map))


def closed_join(qm, sub_a, sub_b):
    """Least closed subquasimodule containing two closed ones."""
    for s in (sub_a, sub_b):
        if not is_closed(qm, s.members):
            raise NotClosed(f"{s} is not closed")
    return double_perp(qm, sub_a.members | sub_b.members)


def sum_set(qm, vectors_a, vectors_b):
    """Bitmask of all pairwise sums x + y with x from A and y from B.

    The OR, over the members p of the smaller set, of the image of the other
    set under q -> p + q (CanonicalQM.image); addition commutes.
    """
    mask_a = qm.mask(vectors_a)
    mask_b = qm.mask(vectors_b)
    if mask_a.bit_count() > mask_b.bit_count():
        mask_a, mask_b = mask_b, mask_a
    out = 0
    for p in iter_bits(mask_a):
        out |= qm.image(mask_b, "add", p)
    return out


def is_splitting(qm, sub):
    """True iff sub plus its companion covers the whole carrier.

    The intersection of sub with its companion is always exactly {zero};
    anything else raises CompanionOverlap.
    """
    companion = perp(qm, sub.members)
    if sub.members & companion != 1 << qm.zero:
        raise CompanionOverlap(
            f"{sub} meets its companion in {qm.label_sets(sub.members & companion)}, "
            f"not in the zero vector alone")
    return sum_set(qm, sub.members, companion) == qm.full_mask


def splitting_subquasimodules(qm, max_nodes=200_000):
    """All splitting subquasimodules; always a subset of the closed ones."""
    subs = all_subquasimodules(qm, max_nodes=max_nodes)
    out = []
    for mask in subs.nodes:
        sub = SubQM(qm, mask)
        if is_splitting(qm, sub):
            if not is_closed(qm, mask):
                raise SplittingNotClosed(f"splitting subquasimodule {sub} is not closed")
            out.append(sub)
    return out


@dataclass(frozen=True)
class FactorizationWitness:
    """Per-factor closed components whose product reconstructs a closed set."""

    qm: object
    factor_masks: tuple  # element bitmask per factor

    def factor_labels(self):
        return tuple(self.qm.lattice.labels(m) for m in self.factor_masks)


def product_mask(qm, element_masks):
    """Carrier bitmask of the product of one element subset per factor."""
    if len(element_masks) != len(qm.factors):
        raise ValueError("need one element mask per factor")
    out = qm.full_mask
    for i, em in enumerate(element_masks):
        layer = 0
        for e in iter_bits(em):
            layer |= qm.coord_mask(i, e)
        out &= layer
    return out


def factor_carrier_mask(factor_qm, element_mask):
    """Lift an element subset of a factor into its one-factor carrier."""
    out = 0
    for e in iter_bits(element_mask):
        out |= 1 << factor_qm.position((e,))
    return out


def factor_element_mask(factor_qm, carrier_mask):
    """Project a one-factor carrier subset back to an element subset."""
    out = 0
    for p in iter_bits(carrier_mask):
        out |= 1 << factor_qm.carrier[p][0]
    return out


def factorize_closed(qm, sub):
    """Split a closed subquasimodule into closed components, one per factor.

    The components are the coordinate projections; each must be closed in its
    one-factor quasimodule and their product must reconstruct the input. A
    failure of either obligation raises FactorizationFailed and indicates a
    library bug, since 0-distributive factors guarantee both.
    """
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


@dataclass(frozen=True)
class ClosedIso:
    """The product map from factor closed lattices onto the closed lattice.

    `assignments` pairs each choice of per-factor closed element sets with
    the carrier mask of their product. The verification flags record
    bijectivity onto the closed lattice and order preservation both ways.
    """

    qm: object
    factor_closed: tuple      # per factor: tuple of closed element masks
    assignments: tuple        # ((element masks...), carrier mask) pairs
    bijective: bool
    order_embedding: bool

    @property
    def is_isomorphism(self):
        return self.bijective and self.order_embedding


def closed_lattice_iso(qm):
    """Build and verify the product isomorphism onto the closed lattice."""
    _require_zero_distributive(qm)
    closed = closed_subquasimodules(qm)
    factor_closed = []
    for i in range(len(qm.factors)):
        fqm = qm.factor_qm(i)
        fcl = closed_subquasimodules(fqm)
        factor_closed.append(tuple(factor_element_mask(fqm, m) for m in fcl.nodes))

    assignments = []
    images = set()
    for choice in iproduct(*factor_closed):
        image = product_mask(qm, choice)
        assignments.append((choice, image))
        images.add(image)

    bijective = (len(images) == len(assignments) == len(closed)
                 and images == set(closed.nodes))
    return ClosedIso(qm, tuple(factor_closed), tuple(assignments),
                     bijective, is_order_embedding(assignments))


def is_order_embedding(assignments):
    """True iff, for every pair of (choice, image) assignments, the choices
    are included coordinatewise exactly when the images are included.

    Row a is compared as two bitsets over assignment indices: the AND over
    coordinates i of "assignments whose i-th set contains a's i-th set", and
    the AND over a's image positions of "assignments whose image holds the
    position". Stops at the first row that differs.
    """
    if not assignments:
        return True
    k = len(assignments[0][0])
    with_value = [{} for _ in range(k)]   # i -> {set: assignments choosing it}
    holding = {}                          # position -> assignments whose image holds it
    for b, (choice, image) in enumerate(assignments):
        bit = 1 << b
        for i, y in enumerate(choice):
            with_value[i][y] = with_value[i].get(y, 0) | bit
        for q in iter_bits(image):
            holding[q] = holding.get(q, 0) | bit
    # the assignments choosing different sets are disjoint, so sum is their OR
    above = [{x: sum(bits for y, bits in by.items() if x & ~y == 0) for x in by}
             for by in with_value]
    everything = (1 << len(assignments)) - 1
    for choice, image in assignments:
        by_choice = everything
        for i, x in enumerate(choice):
            by_choice &= above[i][x]
        by_image = everything
        for q in iter_bits(image):
            by_image &= holding[q]
        if by_choice != by_image:
            return False
    return True

