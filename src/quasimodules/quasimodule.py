"""Canonical quasimodules: finite products of ideals of one scalar lattice.

Addition is componentwise join, the scalar action is componentwise meet with
the scalar, and the zero vector is all-bottom. The carrier is enumerated once
in row-major order of the factor member lists (each sorted by element index),
so carrier subsets become int bitmasks over carrier positions.

A CanonicalQM keeps no operation tables: a single sum or scalar multiple is
computed from the coordinates, the image of a whole carrier subset under
q -> p + q is a few masked shifts of its bitmask (CanonicalQM.image), and the
scalar orbit {c p : c in L} of each vector is one row of a per-vector table
(CanonicalQM.scalar_orbits), at every carrier size.
"""

from __future__ import annotations

import os
from itertools import product
from math import prod

from .bitset import iter_bits
from .errors import (
    BasisCheckFailed,
    CarrierTooLarge,
    FactorNotIdeal,
    FactorNotPrincipal,
    IndexOutOfRange,
    NotInCarrier,
    ParseError,
)
from .lattice import FrozenRecord, Ideal, is_ideal, load_lattice, read_text, set_field


class CanonicalQM:
    """A canonical quasimodule over a finite bounded lattice.

    Vectors are identified with their carrier positions (dense ints); the
    coordinate tuple of position p is ``carrier[p]``. Immutable after
    construction apart from internal caches.
    """

    __slots__ = ("lattice", "factors", "carrier", "index", "size", "zero",
                 "_pperp", "_seeded", "_perp_layers", "_orbits", "_irreducibles",
                 "_factor_qms", "_closed", "_slabs", "_moves", "_steps")

    def __init__(self, lattice, factors, carrier, index):
        self.lattice = lattice
        self.factors = factors
        self.carrier = carrier
        self.index = index
        self.size = len(carrier)
        self.zero = index[tuple([lattice.bottom] * len(factors))]
        # position -> singleton companion bitmask, filled by
        # galois.principal_perp or seeded by galois.with_companions, which
        # sets _seeded on the copy it makes
        self._pperp = {}
        self._seeded = False
        # per factor i, element x -> the vectors whose i-th coordinate meets
        # x in bottom; built by galois.principal_perp
        self._perp_layers = None
        # per position p, the bitmask {c p : c in L}, built by scalar_orbits
        self._orbits = None
        # bitmask of the join-irreducible vectors, built by galois.join_irreducibles
        self._irreducibles = None
        # factor member mask -> one-factor quasimodule, filled by factor_qm
        self._factor_qms = {}
        # the ClosedLattice, set by closed_subquasimodules once its checks pass
        self._closed = None
        self._slabs = None
        # (factor, element) -> [(slab, shift)], shared by the steps
        self._moves = {}
        # p -> tuple of the non-identity move lists, filled by image()
        self._steps = {}

    # -- vectors -----------------------------------------------------------

    def position(self, coords):
        try:
            return self.index[tuple(coords)]
        except KeyError:
            raise NotInCarrier(f"vector {tuple(coords)} is not in the carrier") from None

    def coords(self, pos):
        self._check(pos)
        return self.carrier[pos]

    def axis(self, i, e):
        """Position of the axis vector with e at coordinate i and bottom
        elsewhere; raises NotInCarrier when e is not in factor i."""
        if not 0 <= i < len(self.factors):
            raise IndexOutOfRange(f"factor index out of range: {i}")
        coords = [self.lattice.bottom] * len(self.factors)
        coords[i] = e
        return self.position(coords)

    def vector(self, *labels):
        """Carrier position of the vector given by one element label per factor."""
        if len(labels) != len(self.factors):
            raise NotInCarrier(
                f"expected {len(self.factors)} coordinates, got {len(labels)}")
        return self.position(tuple(self.lattice.index(lab) for lab in labels))

    def vector_labels(self, pos):
        return tuple(self.lattice.names[c] for c in self.coords(pos))

    def _check(self, pos):
        if not isinstance(pos, int) or not 0 <= pos < self.size:
            raise NotInCarrier(f"carrier position out of range: {pos}")

    # -- algebra -----------------------------------------------------------

    def add(self, p, q):
        self._check(p)
        self._check(q)
        join = self.lattice.join
        return self.index[tuple(join[a][b] for a, b in zip(self.carrier[p], self.carrier[q]))]

    def smul(self, c, p):
        if not 0 <= c < self.lattice.n:
            raise IndexOutOfRange(f"scalar index out of range: {c}")
        self._check(p)
        meet = self.lattice.meet
        return self.index[tuple(meet[c][a] for a in self.carrier[p])]

    def scalar_orbits(self):
        """Per position p, the bitmask of {c p : c in L}; built once."""
        if self._orbits is None:
            index, rows = self.index, self.lattice.meet
            orbits = []
            for u in self.carrier:
                m = 0
                for row in rows:
                    m |= 1 << index[tuple([row[a] for a in u])]
                orbits.append(m)
            self._orbits = tuple(orbits)
        return self._orbits

    def inner(self, p, q):
        """Inner product: the join over all componentwise meets."""
        self._check(p)
        self._check(q)
        meet = self.lattice.meet
        join = self.lattice.join
        out = self.lattice.bottom
        for a, b in zip(self.carrier[p], self.carrier[q]):
            out = join[out][meet[a][b]]
        return out

    def orthogonal(self, p, q):
        """True iff every componentwise meet is bottom."""
        self._check(p)
        self._check(q)
        meet = self.lattice.meet
        b = self.lattice.bottom
        return all(meet[x][y] == b for x, y in zip(self.carrier[p], self.carrier[q]))

    # -- carrier subsets -----------------------------------------------------

    def mask(self, vectors):
        """Normalize a carrier subset to a bitmask.

        Accepts an int mask, anything with a ``members`` bitmask, or an
        iterable of positions / coordinate tuples.
        """
        if isinstance(vectors, int):
            if vectors >> self.size:
                raise NotInCarrier("mask has bits outside the carrier")
            return vectors
        members = getattr(vectors, "members", None)
        if members is not None:
            return self.mask(members)
        m = 0
        for v in vectors:
            m |= 1 << (v if isinstance(v, int) else self.position(v))
        if m >> self.size:
            raise NotInCarrier("mask has bits outside the carrier")
        return m

    def label_sets(self, mask):
        return [self.vector_labels(p) for p in iter_bits(mask)]

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    def project(self, vectors, i):
        """Element bitmask of the i-th coordinates of a carrier subset: the
        elements e whose slab row (e, slab) of factor i meets it."""
        if not 0 <= i < len(self.factors):
            raise IndexOutOfRange(f"factor index out of range: {i}")
        mask = self.mask(vectors)
        out = 0
        for e, slab in self.slabs()[i]:
            if mask & slab:
                out |= 1 << e
        return out

    def slabs(self):
        """Per factor i, the slab rows (e, slab) over its members in index
        order, slab the carrier bitmask of the vectors whose i-th coordinate
        is e; built once, from the factor sizes alone.

        Positions are row-major over the factor member lists, so the i-th
        coordinate of position p is the member number (p // stride_i) mod
        |F_i|, stride_i the product of the later factor sizes. The slab of
        the k-th member is therefore a block of stride_i ones, repeated every
        period_i = stride_i |F_i| bits and shifted left by k stride_i. The
        repetition is one multiplication by the repunit of the period, the
        carrier mask divided by 2^period_i - 1 (period_i divides the carrier
        size): O(sum |F_i|) big-int operations and no walk over the vectors.
        """
        if self._slabs is None:
            full = self.full_mask
            period, rows = self.size, []
            for f in self.factors:
                members = list(iter_bits(f.members))
                stride = period // len(members)
                block = ((1 << stride) - 1) * (full // ((1 << period) - 1))
                rows.append(tuple((e, block << k * stride) for k, e in enumerate(members)))
                period = stride
            self._slabs = tuple(rows)
        return self._slabs

    def image(self, mask, p):
        """Bitmask of {p + q : q in mask}, p a carrier position.

        Positions are row-major over the factor member lists, so changing
        coordinate i from e to e' moves the whole slab of row (e, slab) by one
        bit offset. The map acts on one coordinate at a time, each step a few
        masked shifts of the whole bitmask; ideals are closed under join, so
        no shift leaves the carrier. The steps of each p are validated and
        cached on first use.
        """
        steps = self._steps.get(p)
        if steps is None:
            steps = self._image_steps(p)
        for moves in steps:
            out = 0
            for slab, shift in moves:
                if shift >= 0:
                    out |= (mask & slab) << shift
                else:
                    out |= (mask & slab) >> -shift
            mask = out
        return mask

    def _image_steps(self, p):
        """Validate p and cache its per-coordinate move lists."""
        self._check(p)
        steps = []
        for i, x in enumerate(self.carrier[p]):
            moves = self._moves.get((i, x))
            if moves is None:
                moves = self._moves[i, x] = self._slab_moves(i, x)
            if moves:
                steps.append(moves)
        steps = self._steps[p] = tuple(steps)
        return steps

    def _slab_moves(self, i, x):
        """[(slab, shift)] for e -> join(x, e) on coordinate i.

        The slabs of one factor are one bit pattern at different offsets, so
        the shift from e to e' is the distance between their slabs' lowest
        bits. Slabs with equal shifts are merged; an identity map gives [].
        """
        join = self.lattice.join
        slabs = self.slabs()[i]
        start = {e: (slab & -slab).bit_length() for e, slab in slabs}
        by_shift = {}
        for e, slab in slabs:
            shift = start[join[x][e]] - start[e]
            by_shift[shift] = by_shift.get(shift, 0) | slab
        if by_shift.keys() == {0}:
            return []
        return [(slab, shift) for shift, slab in by_shift.items()]

    def factor_qm(self, i):
        """The one-factor canonical quasimodule on factor i (same scalars).

        Kept by member mask, so factors that are the same ideal share one
        factor quasimodule, and with it its closed lattice, companions and
        slabs. A copy made by galois.with_companions starts with none.
        """
        if not 0 <= i < len(self.factors):
            raise IndexOutOfRange(f"factor index out of range: {i}")
        factor = self.factors[i]
        qm = self._factor_qms.get(factor.members)
        if qm is None:
            qm = self._factor_qms[factor.members] = canonical(self.lattice, (factor,))
        return qm

    def __repr__(self):
        parts = " x ".join(
            "{" + " ".join(self.lattice.labels(f.members)) + "}" for f in self.factors)
        return f"CanonicalQM({parts}, {self.size} vectors)"


def canonical(lattice, factors, max_carrier=10 ** 6):
    """Build the canonical quasimodule with the given factor ideals.

    Every factor must be an ideal of `lattice`; the carrier is their product,
    capped at `max_carrier` vectors.
    """
    factors = tuple(factors)
    if not factors:
        raise FactorNotIdeal("a canonical quasimodule needs at least one factor ideal")
    for k, f in enumerate(factors):
        if not isinstance(f, Ideal) or f.lattice != lattice:
            raise FactorNotIdeal(f"factor {k} is not an ideal of the scalar lattice")
        if not is_ideal(lattice, f.members):
            raise FactorNotIdeal(f"factor {k} fails the ideal laws")
    size = prod(f.members.bit_count() for f in factors)
    if size > max_carrier:
        raise CarrierTooLarge(
            f"carrier would hold {size} vectors (cap {max_carrier})")
    member_lists = [list(iter_bits(f.members)) for f in factors]
    carrier = tuple(product(*member_lists))
    index = {u: p for p, u in enumerate(carrier)}
    return CanonicalQM(lattice, factors, carrier, index)


def standard_basis(qm, check=True):
    """One generator per factor: the factor's top in that coordinate, bottom elsewhere.

    Requires every factor to be a principal interval [bottom, q]; validated
    finite ideals always are. The result is verified to be a basis unless
    `check` is False.
    """
    lattice = qm.lattice
    out = []
    for i, f in enumerate(qm.factors):
        q = f.max_element
        if f.members != lattice.down[q]:
            raise FactorNotPrincipal(
                f"factor {i} is not the interval below {lattice.names[q]!r}")
        out.append(qm.axis(i, q))
    if check:
        from .subquasi import SubQM, is_basis

        if not is_basis(SubQM(qm, qm.full_mask), out):
            raise BasisCheckFailed(f"standard basis {out} is not a basis")
    return out


# -- raw quasimodule data and axiom verification -----------------------------

class RawQM(FrozenRecord):
    """Bare operation tables over an abstract carrier, to be axiom-checked.

    `add` is size x size, `smul` is |L| x size, both holding carrier indices.
    """

    __slots__ = ("lattice", "add", "smul", "zero")

    def __init__(self, lattice, add, smul, zero):
        set_field(self, "lattice", lattice)
        set_field(self, "add", add)
        set_field(self, "smul", smul)
        set_field(self, "zero", zero)

    @property
    def size(self):
        return len(self.add)


class AxiomCheck(FrozenRecord):
    __slots__ = ("name", "holds", "witness")

    def __init__(self, name, holds, witness=None):
        set_field(self, "name", name)
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)


class AxiomReport(FrozenRecord):
    __slots__ = ("checks",)

    def __init__(self, checks):
        set_field(self, "checks", checks)

    @property
    def ok(self):
        return all(c.holds for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.holds]

    def __iter__(self):
        return iter(self.checks)


def verify_axioms(m):
    """Exhaustively check the quasimodule axioms on tables or a CanonicalQM.

    Checks: commutative monoid under addition with the zero vector as
    identity, composition of scalar actions through the scalar meet, and the
    bottom/top scalar laws. Each entry reports the first witness on failure.
    """
    if isinstance(m, CanonicalQM):
        # tabulate once; the associativity loop makes |Q|^3 lookups
        positions = range(m.size)
        m = RawQM(m.lattice, tuple(tuple(m.add(p, q) for q in positions) for p in positions),
                  tuple(tuple(m.smul(c, p) for p in positions) for c in range(m.lattice.n)),
                  m.zero)
    else:
        _check_shape(m)
    size, zero, lattice = m.size, m.zero, m.lattice
    add, smul = m.add, m.smul

    checks = []

    witness = None
    for p in range(size):
        for q in range(p + 1, size):
            if add[p][q] != add[q][p]:
                witness = (p, q)
                break
        if witness:
            break
    checks.append(AxiomCheck("add.commutative", witness is None, witness))

    witness = None
    for p in range(size):
        for q in range(size):
            pq = add[p][q]
            for r in range(size):
                if add[pq][r] != add[p][add[q][r]]:
                    witness = (p, q, r)
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("add.associative", witness is None, witness))

    witness = None
    for p in range(size):
        if add[zero][p] != p or add[p][zero] != p:
            witness = (p,)
            break
    checks.append(AxiomCheck("add.identity", witness is None, witness))

    witness = None
    meet = lattice.meet
    for a in range(lattice.n):
        for b in range(lattice.n):
            ab = meet[a][b]
            for p in range(size):
                if smul[a][smul[b][p]] != smul[ab][p]:
                    witness = (a, b, p)
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("scalar.composition", witness is None, witness))

    witness = None
    for p in range(size):
        if smul[lattice.bottom][p] != zero:
            witness = (p,)
            break
    checks.append(AxiomCheck("scalar.bottom", witness is None, witness))

    witness = None
    for p in range(size):
        if smul[lattice.top][p] != p:
            witness = (p,)
            break
    checks.append(AxiomCheck("scalar.top", witness is None, witness))

    return AxiomReport(tuple(checks))


def _check_shape(m):
    size = len(m.add)
    if any(len(row) != size for row in m.add):
        raise ValueError("add table is not square")
    if len(m.smul) != m.lattice.n or any(len(row) != size for row in m.smul):
        raise ValueError("smul table is not |L| x carrier")
    entries = [e for row in m.add for e in row] + [e for row in m.smul for e in row]
    if any(not 0 <= e < size for e in entries) or not 0 <= m.zero < size:
        raise ValueError("table entries out of carrier range")


# -- quasimodule spec files ---------------------------------------------------
#
# A quasimodule file names a lattice (path or builtin:NAME) and lists factor
# ideals, one per line:
#
#   lattice: builtin:n5
#   factor: principal a
#   factor: set 0 a c

def parse_qm(text, base_dir=None, source="<qm>"):
    lattice = None
    factor_specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("lattice:"):
            if lattice is not None:
                raise ParseError("duplicate 'lattice:' line", source, lineno)
            ref = line[len("lattice:"):].strip()
            if not ref:
                raise ParseError("empty lattice reference", source, lineno)
            try:
                lattice = load_lattice(ref, base_dir)
            except (OSError, ValueError) as exc:
                # a file that cannot be opened, or a path open() refuses
                reason = getattr(exc, "strerror", None) or exc
                raise ParseError(f"cannot read lattice {ref!r}: {reason}",
                                 source, lineno) from None
            continue
        if line.startswith("factor:"):
            if lattice is None:
                raise ParseError("'factor:' before 'lattice:'", source, lineno)
            tokens = line[len("factor:"):].split()
            if tokens and tokens[0] == "principal":
                if len(tokens) != 2:
                    raise ParseError("expected 'factor: principal LABEL'", source, lineno)
                factor_specs.append(("principal", tokens[1], lineno))
            elif tokens and tokens[0] == "set":
                if len(tokens) < 2:
                    raise ParseError("expected 'factor: set LABEL...'", source, lineno)
                factor_specs.append(("set", tokens[1:], lineno))
            else:
                raise ParseError(f"unknown factor form {line!r}", source, lineno)
            continue
        raise ParseError(f"unrecognized line {line!r}", source, lineno)
    if lattice is None:
        raise ParseError("missing 'lattice:' line", source)
    if not factor_specs:
        raise ParseError("at least one 'factor:' line is required", source)

    factors = []
    for kind, payload, lineno in factor_specs:
        try:
            if kind == "principal":
                factors.append(Ideal(lattice, lattice.down[lattice.index(payload)]))
            else:
                factors.append(Ideal.from_members(lattice, payload))
        except (IndexOutOfRange, FactorNotIdeal) as exc:
            raise ParseError(str(exc), source, lineno) from exc
    return canonical(lattice, factors)


def read_qm_file(path):
    return parse_qm(read_text(path), base_dir=os.path.dirname(os.path.abspath(path)),
                    source=str(path))
