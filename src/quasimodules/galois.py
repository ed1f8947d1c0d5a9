"""Orthogonality companions, double-orthogonality closure, closed and
splitting subquasimodule lattices, and the product map from the factor
closed lattices onto the closed lattice.

The companion of a subset A is every vector orthogonal to all of A. It equals
the intersection of the companions of A's single vectors, which is how all
companion computations here are organized. The empty subset's companion is
the whole carrier (vacuous quantification).

Orthogonality is coordinatewise, so the companion of a vector p is also the
intersection, over the coordinates i, of the companions of its axis vectors
(p_i at coordinate i, bottom elsewhere). The closed sets are therefore the
intersection closure of at most sum |F_i| axis companions, with or without
0-distributivity, and that is how closed_sets builds them.

The closed lattice is built once per quasimodule and kept on it, as the
companions are. With two or more 0-distributive factors it is the product of
the factors' closed lattices (th3, cor1), and a product's companion is the
product of the factor companions (lem1), so the involution is the product of
the factor involutions. One factor, or seeded companions (with_companions),
which need not come from orthogonality, take the definition: the closed sets
and one companion per node. A sum A + B is taken on generators of the
smaller side under +.

The join-irreducible vectors J (join_irreducibles) are the nonzero vectors
that are not the sum of the vectors strictly below them. Every vector is the
sum of the vectors of J below it (Davey & Priestley, Introduction to Lattices
and Order, 2002). If j in J is x + y, then x, y <= j, so x = j or y = j. A
pair P, P* that misses a vector of J therefore does not sum to Q, whatever
the sets are. When P and P* hold all of J and are both closed under + with
zero, as closed-lattice nodes are, each q is the sum of the vectors of J
below it in P plus those in P*, so P + P* = Q with no sum taken.
"""

from __future__ import annotations

from itertools import product as iproduct

from .bitset import iter_bits
from .errors import (
    CompanionNotClosed,
    CompanionOverlap,
    FactorizationFailed,
    NotClosed,
    NotZeroDistributive,
    SplittingNotClosed,
)
from .lattice import FrozenRecord, is_0_distributive, set_field
from .quasimodule import CanonicalQM
from .subquasi import SubQM, SubQMLattice, all_subquasimodules, is_subquasimodule


def principal_perp(qm, p):
    """Companion bitmask of a single vector, cached on the quasimodule; a
    companion seeded by with_companions is returned as seeded.

    A vector is orthogonal to p iff each coordinate meets p's coordinate in
    bottom, so the companion is the AND over coordinates i of the layer of
    (i, p_i): the OR of the slab rows (e, slab) of factor i with
    e ^ p_i = bottom. The layers are built once per quasimodule, so each
    companion is one AND per factor.
    """
    cached = qm._pperp.get(p)
    if cached is not None:
        return cached
    layers = qm._perp_layers
    if layers is None:
        layers = qm._perp_layers = _perp_layers(qm)
    out = qm.full_mask
    for x, row in zip(qm.carrier[p], layers):
        out &= row[x]
    qm._pperp[p] = out
    return out


def _perp_layers(qm):
    """Per factor i, the list over elements x of the carrier bitmask of the
    vectors whose i-th coordinate meets x in bottom (0 off the factor)."""
    meet, b = qm.lattice.meet, qm.lattice.bottom
    out = []
    for factor, slabs in zip(qm.factors, qm.slabs()):
        row = [0] * qm.lattice.n
        for x in iter_bits(factor.members):
            for e, slab in slabs:
                if meet[x][e] == b:
                    row[x] |= slab
        out.append(row)
    return tuple(out)


def join_irreducibles(qm):
    """Bitmask of J, the nonzero vectors that are not the sum of the vectors
    strictly below them; kept on the quasimodule.

    + is the coordinatewise join, so a vector with two coordinates above
    bottom is the sum of its projections onto them, both strictly below it.
    Below an axis vector (e at coordinate i, bottom elsewhere) lie the axis
    vectors of the elements under e, all in the factor as it is an ideal. So
    J is the axis vectors whose element e is join-irreducible in L: not
    bottom, and not the join of the elements strictly below it (e has a
    single lower cover).
    """
    if qm._irreducibles is None:
        join, down, bottom = qm.lattice.join, qm.lattice.down, qm.lattice.bottom
        base = [bottom] * len(qm.factors)
        out = 0
        for i, factor in enumerate(qm.factors):
            for e in iter_bits(factor.members):
                below = bottom
                for x in iter_bits(down[e] ^ 1 << e):
                    below = join[below][x]
                if below != e:
                    coords = base.copy()
                    coords[i] = e
                    out |= 1 << qm.index[tuple(coords)]
        qm._irreducibles = out
    return qm._irreducibles


def with_companions(qm, companions):
    """A fresh quasimodule on qm's lattice, factors and carrier whose
    singleton companions at the given positions are the given bitmasks.

    This is the fault-injection seam: the companions are stored before any
    computation, so every companion map built on the copy is the meet of
    these and of the computed ones, even where they break orthogonality.
    The copy is marked seeded, so perp walks it in increasing order and its
    closed lattice is built from the definition, not from the factors.
    Raises NotInCarrier for a position or mask outside the carrier; qm
    itself is not changed.
    """
    seeded = {}
    for p, mask in companions.items():
        qm._check(p)
        seeded[p] = qm.mask(mask)
    out = CanonicalQM(qm.lattice, qm.factors, qm.carrier, qm.index)
    out._pperp.update(seeded)
    out._seeded = True
    return out


def perp(qm, vectors):
    """Companion bitmask of a carrier subset; the empty subset gives everything.

    The meet of the singleton companions (principal_perp) over the members,
    in increasing position order, stopping once it is {zero}. While every
    companion holds zero, as computed ones do, a meet that reached {zero}
    stays there, so the result does not depend on the order: the walk then
    runs from the highest position down, where vectors have the largest
    coordinates and the fewest orthogonal vectors, and usually stops after a
    step or two. Only a companion seeded by with_companions can lack zero;
    then where the walk stops changes the result, so a seeded copy takes the
    increasing order.
    """
    mask = qm.mask(vectors)
    out = qm.full_mask
    zero_only = 1 << qm.zero
    if qm._seeded:
        for p in iter_bits(mask):
            out &= principal_perp(qm, p)
            if out == zero_only:
                break
        return out
    while mask:
        p = mask.bit_length() - 1
        out &= principal_perp(qm, p)
        if out == zero_only:
            break
        mask ^= 1 << p
    return out


class TaggedSet(FrozenRecord):
    """A double-companion that failed the subquasimodule laws.

    Returned instead of SubQM when some factor is not 0-distributive and the
    defect is witnessed by `violation` (same forms as is_subquasimodule).
    """

    __slots__ = ("qm", "members", "violation")

    def __init__(self, qm, members, violation):
        set_field(self, "qm", qm)
        set_field(self, "members", members)
        set_field(self, "violation", violation)


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
    triple of element indices inside the factor. The verdict depends on the
    member mask alone, so each distinct factor ideal is decided once.
    """
    verdicts = {}
    for f in qm.factors:
        if f.members not in verdicts:
            verdicts[f.members] = is_0_distributive(qm.lattice, f.members)
    return [(i, *verdicts[f.members]) for i, f in enumerate(qm.factors)]


def zero_distributivity_defect(qm):
    """A NotZeroDistributive, not raised, naming the first factor that is not
    0-distributive and its witness triple; None when every factor is."""
    for i, ok, witness in factor_zero_distributivity(qm):
        if not ok:
            labels = tuple(qm.lattice.names[e] for e in witness)
            return NotZeroDistributive(
                f"factor {i} is not 0-distributive (witness {labels})",
                factor=i, witness=witness)
    return None


def _require_zero_distributive(qm):
    defect = zero_distributivity_defect(qm)
    if defect is not None:
        raise defect


def _axis_companions(qm):
    """The distinct companions of the axis vectors (one member of one factor,
    bottom elsewhere), each mapped to the first axis vector that has it."""
    bottom = [qm.lattice.bottom] * len(qm.factors)
    out = {}
    for i, factor in enumerate(qm.factors):
        for e in iter_bits(factor.members):
            coords = bottom.copy()
            coords[i] = e
            p = qm.index[tuple(coords)]
            out.setdefault(principal_perp(qm, p), p)
    return out


def closed_sets(qm):
    """All fixed points of the double-companion operator, as bitmasks.

    Every closed set is an intersection of single-vector companions (or the
    whole carrier), and each of those is an intersection of axis companions,
    so the intersection closure of the axis companions is complete: at most
    sum |F_i| generators instead of |Q|. It is built one generator g at a
    time, adding n & g for every set n so far. No 0-distributivity is needed
    for the set-level characterization.
    """
    nodes = {qm.full_mask}
    for g in _axis_companions(qm):
        nodes |= {n & g for n in nodes}
    return nodes


class ClosedLattice(SubQMLattice):
    """The complete lattice of closed subquasimodules with its involution:
    `perp_map[i]` is the index of node i's companion, itself a node.

    Join is the double companion of the union. `companion` maps each node
    mask to its companion mask. Raises CompanionNotClosed at the first node,
    in node order, whose companion is not a node.
    """

    def __init__(self, qm, node_masks, companion):
        super().__init__(qm, node_masks, join_closure=lambda m: perp(qm, perp(qm, m)),
                         kind="closed")
        perp_map = []
        for mask in self.nodes:
            i = self.index.get(companion(mask))
            if i is None:
                raise CompanionNotClosed(
                    f"companion of closed set {qm.label_sets(mask)} is not closed")
            perp_map.append(i)
        self.perp_map = tuple(perp_map)


def closed_subquasimodules(qm):
    """The ClosedLattice of qm; requires 0-distributive factors.

    With two or more factors and no seeded companions it is the product of
    the factors' closed lattices (_product_lattice), each kept on
    qm.factor_qm(i); a product of factor nodes is a subquasimodule as each
    of them is one (Lemma 6(ii)). Otherwise it is built from the definition,
    closed_sets and one perp per node. Every closed set is an intersection
    of axis companions, which are closed themselves, so all closed sets are
    subquasimodules iff those are, which is checked. The lattice is kept on
    the quasimodule once every check has passed; errors are not kept.
    """
    if qm._closed is not None:
        return qm._closed
    _require_zero_distributive(qm)
    if len(qm.factors) > 1 and not qm._seeded:
        qm._closed = _product_lattice(qm)
        return qm._closed
    for mask, p in _axis_companions(qm).items():
        ok, witness = is_subquasimodule(qm, mask)
        if not ok:
            raise FactorizationFailed(
                f"companion {qm.label_sets(mask)} of axis vector "
                f"{qm.vector_labels(p)} is not a subquasimodule "
                f"despite 0-distributive factors (witness {witness})")
    qm._closed = ClosedLattice(qm, closed_sets(qm), lambda mask: perp(qm, mask))
    return qm._closed


def _product_lattice(qm):
    """The closed lattice of a product from its factors' (th3, cor1, lem1).

    A choice (k_1, ..., k_n) of one node per factor is numbered in mixed
    radix, the last factor fastest, as itertools.product lists the choices.
    Its image is the product of the chosen sets, and its companion is the
    image of the choice (perp_map_1[k_1], ..., perp_map_n[k_n]).
    """
    lattices = _factor_lattices(qm)
    images = _product_images(qm, [ems for _, ems in lattices])
    partner = [0]
    for fcl, _ in lattices:
        n = len(fcl)
        partner = [r * n + k for r in partner for k in fcl.perp_map]
    companion = dict(zip(images, [images[r] for r in partner]))
    return ClosedLattice(qm, images, companion.__getitem__)


def _factor_lattices(qm):
    """Per factor i, the closed lattice of qm.factor_qm(i) and its nodes as
    element masks; equal factors share one factor quasimodule, so each
    distinct one is read once."""
    read = {}
    for fqm in map(qm.factor_qm, range(len(qm.factors))):
        if fqm not in read:
            fcl = closed_subquasimodules(fqm)
            read[fqm] = (fcl, tuple(factor_element_mask(fqm, m) for m in fcl.nodes))
    return [read[qm.factor_qm(i)] for i in range(len(qm.factors))]


def _product_images(qm, factor_closed):
    """product_mask of every choice of one element mask per factor, in
    itertools.product order: the AND of one slab union per factor, each
    union built once."""
    images = [qm.full_mask]
    for ems, slabs in zip(factor_closed, qm.slabs()):
        unions = [_slab_union(slabs, em) for em in ems]
        images = [x & u for x in images for u in unions]
    return images


def closed_join(qm, sub_a, sub_b):
    """Least closed subquasimodule containing two closed ones."""
    for s in (sub_a, sub_b):
        if not is_closed(qm, s.members):
            raise NotClosed(f"{s} is not closed")
    return double_perp(qm, sub_a.members | sub_b.members)


def sum_set(qm, vectors_a, vectors_b):
    """Bitmask of all pairwise sums x + y with x from A and y from B.

    Addition commutes, so A is taken to be the smaller set. A walk over A in
    position order keeps p as a generator when p is not yet in `joins`, the
    sums of zero and the generators so far, and adds p to them; it stops
    once `joins` leaves A. If `joins` ends equal to A, then A is the sums of
    its generators, and as x + (g + h) = (x + g) + h, g + g = g and zero is
    the identity, B + A is B with each generator added in turn: one image
    (CanonicalQM.image) per generator. Otherwise the sum is the OR, over the
    members p of A, of the image of B under q -> p + q.
    """
    mask_a = qm.mask(vectors_a)
    mask_b = qm.mask(vectors_b)
    if mask_a.bit_count() > mask_b.bit_count():
        mask_a, mask_b = mask_b, mask_a
    joins, generators = 1 << qm.zero, []
    todo = mask_a & ~joins
    while todo and not joins & ~mask_a:
        p = (todo & -todo).bit_length() - 1
        generators.append(p)
        joins |= qm.image(joins, p)
        todo = mask_a & ~joins
    if joins == mask_a:
        out = mask_b
        for g in generators:
            out |= qm.image(out, g)
        return out
    out = 0
    for p in iter_bits(mask_a):
        out |= qm.image(mask_b, p)
    return out


def is_splitting(qm, sub):
    """True iff sub plus its companion covers the whole carrier.

    The intersection of sub with its companion is always exactly {zero};
    anything else raises CompanionOverlap. Once the closed lattice is built,
    the companion of one of its nodes is read from its involution.

    The sum is decided on J, the join-irreducible vectors
    (join_irreducibles), where it can be. If j = x + y with x in P and y in
    P*, then x, y <= j, so x = j or y = j: a pair that misses a vector of J
    does not split, whatever the two sets are. A closed node whose pair holds
    all of J splits: its companion is a node too, and every node holds zero
    and is closed under +, as closed_subquasimodules builds only
    subquasimodules (see there). Every q is the sum of the vectors of J
    below it, so q is the sum of those in P, which lies in P, and those in
    P*, which lies in P*. Any other pair is decided by sum_set.
    """
    closed = qm._closed
    i = None if closed is None else closed.index.get(sub.members)
    companion = perp(qm, sub.members) if i is None else closed.nodes[closed.perp_map[i]]
    if sub.members & companion != 1 << qm.zero:
        raise CompanionOverlap(
            f"{sub} meets its companion in {qm.label_sets(sub.members & companion)}, "
            f"not in the zero vector alone")
    if join_irreducibles(qm) & ~(sub.members | companion):
        return False
    if i is not None:
        return True
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


def product_mask(qm, element_masks):
    """Carrier bitmask of the product of one element subset per factor.

    Per factor, the OR of the slab rows (CanonicalQM.slabs) of the elements
    in its subset; elements outside the factor add nothing.
    """
    if len(element_masks) != len(qm.factors):
        raise ValueError("need one element mask per factor")
    return _product_images(qm, [(em,) for em in element_masks])[0]


def _slab_union(slabs, element_mask):
    """OR of one factor's slab rows over the elements in element_mask."""
    out = 0
    for e, slab in slabs:
        if element_mask >> e & 1:
            out |= slab
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


class ClosedIso(FrozenRecord):
    """The product map from factor closed lattices onto the closed lattice.

    `factor_closed` holds, per factor, the tuple of its closed element masks.
    `assignments` pairs each choice of per-factor closed element sets with
    the carrier mask of their product. `bijective` records that the images
    are distinct and are exactly the closed nodes. The map preserves and
    reflects order with no check: every factor set holds bottom, and one
    product of non-empty sets lies in another iff each component does.
    """

    __slots__ = ("qm", "factor_closed", "assignments", "bijective")

    def __init__(self, qm, factor_closed, assignments, bijective):
        set_field(self, "qm", qm)
        set_field(self, "factor_closed", factor_closed)
        set_field(self, "assignments", assignments)
        set_field(self, "bijective", bijective)

    @property
    def is_isomorphism(self):
        return self.bijective


def closed_lattice_iso(qm):
    """Build and verify the product isomorphism onto the closed lattice.

    Each image is product_mask of its choice (_product_images). The images
    are compared with closed_sets, the definition, not with the nodes of
    closed_subquasimodules, which on a product are these same images.
    """
    closed_subquasimodules(qm)  # raises what building the closed lattice raises
    factor_closed = tuple(ems for _, ems in _factor_lattices(qm))
    images = _product_images(qm, factor_closed)
    distinct = set(images)
    bijective = len(distinct) == len(images) and distinct == closed_sets(qm)
    return ClosedIso(qm, factor_closed, tuple(zip(iproduct(*factor_closed), images)),
                     bijective)
