"""Subquasimodules: generated closures, the full subquasimodule lattice, bases.

A subquasimodule is a carrier subset containing the zero vector and closed
under addition and every scalar action. Subsets are carrier bitmasks
throughout.
"""

from __future__ import annotations

from itertools import combinations

from .bitset import cover_pairs, iter_bits, sort_masks, superset_masks
from .errors import (
    BasisCheckFailed,
    EnumerationBudgetExceeded,
    LatticeBoundsMissing,
    NodeSetEscaped,
)
from .lattice import FrozenRecord, set_field


class SubQM(FrozenRecord):
    """A subquasimodule of a canonical quasimodule, stored as a member bitmask."""

    __slots__ = ("qm", "members")

    def __init__(self, qm, members):
        set_field(self, "qm", qm)
        set_field(self, "members", members)

    def __contains__(self, pos):
        return bool(self.members >> pos & 1)

    def __len__(self):
        return self.members.bit_count()

    def label_sets(self):
        return self.qm.label_sets(self.members)

    def __repr__(self):
        return f"SubQM({{{', '.join(map(str, self.label_sets()))}}})"


def close_mask(qm, mask, base=0):
    """Least superset of mask containing zero and closed under + and scalars.

    base, if given, must already be closed. Its members start out processed,
    so only the vectors of mask outside base, and what they generate, are
    visited: close_mask(qm, m, base=b) == close_mask(qm, m | b).

    By generators: the working set S stays closed under + at every step. It
    starts as base with zero, and a generator g outside S turns it into
    S | (S + g), one subset image (CanonicalQM.image). That set is closed
    under + again: s1 + (s2 + g) = (s1 + s2) + g, (s1 + g) + (s2 + g) =
    (s1 + s2) + g as g + g = g, and g itself is zero + g. The generators are
    the vectors of mask and the scalar multiples of every vector new to S
    (one lookup in CanonicalQM.scalar_orbits), each taken, lowest position
    first, only if it is still outside S. Meet does not distribute over join
    (N5), so every new vector needs its own orbit, not just each generator.
    When no generator is left, S is closed under + and every scalar action,
    and it holds only sums of multiples of mask and base.
    """
    closed = base | 1 << qm.zero
    todo = mask & ~closed
    orbits = qm.scalar_orbits()
    image = qm.image
    while todo:
        grown = closed | image(closed, (todo & -todo).bit_length() - 1)
        new = grown & ~closed
        closed = grown
        while new:
            low = new & -new
            todo |= orbits[low.bit_length() - 1]
            new ^= low
        todo &= ~closed
    return closed


def generate(qm, vectors):
    """The subquasimodule generated by a carrier subset (empty set gives {zero})."""
    return SubQM(qm, close_mask(qm, qm.mask(vectors)))


def is_subquasimodule(qm, vectors):
    """(holds, witness) where the witness is the first violation found.

    Violations are checked in order: zero membership, then addition over
    member pairs (p, q >= p) in position order, then every scalar action.
    Witness forms: ("zero",), ("add", p, q, p+q), ("smul", c, p, c*p).

    A set that is the product of its projections is decided on the factors
    (Lemma 6(ii)): it holds iff each projection is an ideal, the down-set
    of its join. Only a "holds" is returned that way; any
    other set, and any product that fails, goes to the scan, so witnesses do
    not depend on the shortcut. The scan tests each row as one subset image
    (CanonicalQM.image); only a row that leaves the set is scanned pair by
    pair for its first witness. Scalars are tested on the orbit table
    (CanonicalQM.scalar_orbits); only if some orbit leaves the set are the
    pairs (c, p) scanned for the first witness.
    """
    mask = qm.mask(vectors)
    if not mask >> qm.zero & 1:
        return False, ("zero",)
    if _holds_on_factors(qm, mask):
        return True, None
    outside = ~mask
    for p in iter_bits(mask):
        row = mask >> p << p
        if qm.image(row, p) & outside:
            for q in iter_bits(row):
                s = qm.add(p, q)
                if outside >> s & 1:
                    return False, ("add", p, q, s)
    orbits = qm.scalar_orbits()
    if not any(orbits[p] & outside for p in iter_bits(mask)):
        return True, None
    # bottom sends every vector to zero, checked above, and top fixes it
    trivial = (qm.lattice.bottom, qm.lattice.top)
    for c in range(qm.lattice.n):
        if c not in trivial:
            for p in iter_bits(mask):
                s = qm.smul(c, p)
                if outside >> s & 1:
                    return False, ("smul", c, p, s)
    return True, None


def _holds_on_factors(qm, mask):
    """True iff mask is the product of its projections and each projection
    is an ideal, the down-set of its join; mask must hold zero, so no
    projection is empty. An element set closed under scalar meet holds the
    down-set {c ^ e : c in L} of each member, and one closed under join holds
    its join, so these are exactly the factor subquasimodules.
    """
    product = qm.full_mask
    parts = []
    for slabs in qm.slabs():
        em = layer = 0
        for e, slab in slabs:
            if mask & slab:
                em |= 1 << e
                layer |= slab
        product &= layer
        parts.append(em)
    if product != mask:
        return False
    lattice = qm.lattice
    return all(lattice.down[lattice.join_of(em)] == em for em in parts)


class SubQMLattice:
    """A finite bounded lattice of subquasimodules ordered by inclusion.

    Nodes are member bitmasks in canonical order (by size, then by member
    positions), so node k prints as P{k+1}. Meet is intersection; join is the
    supplied closure of the union (generated join for the full lattice,
    double-orthogonality join for the closed lattice).
    """

    def __init__(self, qm, node_masks, join_closure, kind="all"):
        self.qm = qm
        self.kind = kind
        self.nodes = tuple(sort_masks(node_masks, qm.size))
        self.index = {mask: i for i, mask in enumerate(self.nodes)}
        self._join_closure = join_closure
        zero_only = 1 << qm.zero
        if not self.nodes or self.nodes[0] != zero_only or self.nodes[-1] != qm.full_mask:
            raise LatticeBoundsMissing(
                "subquasimodule lattice must run from {zero} to the full carrier")

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, i):
        return SubQM(self.qm, self.nodes[i])

    def name(self, i):
        return f"P{i + 1}"

    def names(self):
        return [self.name(i) for i in range(len(self.nodes))]

    def name_of_mask(self, mask):
        return self.name(self.index[mask])

    def leq(self, i, j):
        return self.nodes[i] & ~self.nodes[j] == 0

    def meet(self, i, j):
        k = self.index.get(self.nodes[i] & self.nodes[j])
        if k is None:
            raise NodeSetEscaped(f"meet of {self.name(i)} and {self.name(j)} is not a node")
        return k

    def join(self, i, j):
        u = self.nodes[i] | self.nodes[j]
        k = self.index.get(u)
        if k is None:
            k = self.index.get(self._join_closure(u))
            if k is None:
                raise NodeSetEscaped(
                    f"join of {self.name(i)} and {self.name(j)} is not a node")
        return k

    @property
    def bottom_index(self):
        return 0

    @property
    def top_index(self):
        return len(self.nodes) - 1

    def covers(self):
        """Cover pairs (i, j) of the containment order, lexicographic."""
        return cover_pairs(superset_masks(self.nodes))

    def __repr__(self):
        return f"SubQMLattice({self.kind}, {len(self.nodes)} nodes)"


def all_subquasimodules(qm, max_nodes=200_000):
    """The complete subquasimodule lattice of qm, by Fast Close-by-One.

    Subquasimodules are the fixed points of close_mask. Starting from the
    closure of the empty set with depth index 0, each closed set B with
    depth index y is extended by every position p >= y outside B to
    C = close(B + {p}); those positions are scanned as the set bits of
    full & ~B with the bits below y cleared. C is kept only if it adds no
    position below p (the canonicity test), and is then extended from depth
    p + 1. Every closed set is produced exactly once (Kuznetsov 1993).

    FCbO (Outrata & Vychodil, Information Sciences 185, 2012) skips attempts
    that must fail: each node carries, per position p, the closure of the
    last failed attempt at p among its ancestors. Closure is monotone and B
    contains that ancestor, so if the stored closure holds a position below
    p outside B, close(B + {p}) holds it too and p is skipped without a
    closure call. A node's own failures are added to its copy of the list,
    which all its children share; the copy is made at its first failure (the
    children pushed before it are pointed at it then), so a node that never
    fails passes its parent's list on as it is. At most |Q| closure calls
    per node. Raises EnumerationBudgetExceeded iff the lattice has more than max_nodes
    nodes.
    """
    bottom = close_mask(qm, 0)
    full = qm.full_mask
    nodes = [bottom]
    stack = [(bottom, 0, [0] * qm.size)]
    while stack:
        b, y, inherited = stack.pop()
        failed = inherited
        mark = len(stack)
        not_b = ~b
        candidates = full & ~b >> y << y
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            p = low.bit_length() - 1
            below = low - 1
            if failed[p] & below & not_b:
                continue
            c = close_mask(qm, low, base=b)
            if (c ^ b) & below:
                if failed is inherited:
                    failed = list(inherited)
                    stack[mark:] = [(s, z, failed) for s, z, _ in stack[mark:]]
                failed[p] = c
                continue
            nodes.append(c)
            if len(nodes) > max_nodes:
                raise EnumerationBudgetExceeded(
                    f"subquasimodule lattice exceeds {max_nodes} nodes")
            stack.append((c, p + 1, failed))
    return SubQMLattice(qm, nodes, join_closure=lambda m: close_mask(qm, m), kind="all")


def is_generating(sub, vectors):
    """True iff the given subset of sub generates all of sub."""
    qm = sub.qm
    mask = qm.mask(vectors)
    if mask & ~sub.members:
        raise ValueError("generating candidates must lie inside the subquasimodule")
    return close_mask(qm, mask) == sub.members


def is_basis(sub, vectors):
    """True iff the subset generates sub and no proper subset does.

    One-element deletions decide minimality because generation is monotone.
    """
    qm = sub.qm
    mask = qm.mask(vectors)
    if not is_generating(sub, mask):
        return False
    for p in iter_bits(mask):
        if close_mask(qm, mask & ~(1 << p)) == sub.members:
            return False
    return True


def find_bases(sub, max_size, max_candidates=500_000):
    """All inclusion-minimal generating sets of sub with at most max_size elements.

    Returns (positions tuple, is_orthogonal) pairs ordered by size then by
    position tuple. Candidates are pruned against previously found bases:
    any strict superset of a basis cannot be minimal.
    """
    if max_size < 0:
        raise ValueError("max_size must be non-negative")
    qm = sub.qm
    target = sub.members
    zero_only = 1 << qm.zero
    out = []
    found_sets = []
    if target == zero_only:
        return [((), True)]
    pool = [p for p in iter_bits(target) if p != qm.zero]
    budget = max_candidates
    for size in range(1, max_size + 1):
        for combo in combinations(pool, size):
            budget -= 1
            if budget < 0:
                raise EnumerationBudgetExceeded(
                    f"basis search exceeds {max_candidates} candidates")
            cset = frozenset(combo)
            if any(f <= cset for f in found_sets):
                continue
            mask = 0
            for p in combo:
                mask |= 1 << p
            if close_mask(qm, mask) != target:
                continue
            if not is_basis(sub, mask):
                raise BasisCheckFailed(f"minimal generating set {combo} is not a basis")
            orth = all(qm.orthogonal(p, q) for p, q in combinations(combo, 2))
            out.append((combo, orth))
            found_sets.append(cset)
    return out
