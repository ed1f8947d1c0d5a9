"""Canonical quasimodules: finite products of ideals of one scalar lattice.

Addition is componentwise join, the scalar action is componentwise meet with
the scalar, and the zero vector is all-bottom. The carrier is enumerated once
in row-major order of the factor member lists (each sorted by element index),
so carrier subsets become int bitmasks over carrier positions.

A CanonicalQM keeps no operation tables: a single sum or scalar multiple is
computed from the coordinates, and the image of a whole carrier subset under
q -> p + q or q -> c q is a few masked shifts of its bitmask
(CanonicalQM.image), at every carrier size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
from .lattice import Ideal, Lattice, is_ideal, load_lattice


class CanonicalQM:
    """A canonical quasimodule over a finite bounded lattice.

    Vectors are identified with their carrier positions (dense ints); the
    coordinate tuple of position p is ``carrier[p]``. Immutable after
    construction apart from internal caches.
    """

    __slots__ = ("lattice", "factors", "carrier", "index", "size", "zero",
                 "_pperp", "_factor_qms", "_coord_masks", "_moves", "_steps")

    def __init__(self, lattice, factors, carrier, index):
        self.lattice = lattice
        self.factors = factors
        self.carrier = carrier
        self.index = index
        self.size = len(carrier)
        self.zero = index[tuple([lattice.bottom] * len(factors))]
        self._pperp = {}
        self._factor_qms = {}
        self._coord_masks = None
        # (kind, factor, element) -> [(slab, shift)], shared by the steps
        self._moves = {}
        # (kind, a) -> tuple of the non-identity move lists, filled by image()
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

    def positions(self, mask):
        return list(iter_bits(mask))

    def vectors(self, mask):
        return [self.carrier[p] for p in iter_bits(mask)]

    def label_sets(self, mask):
        return [self.vector_labels(p) for p in iter_bits(mask)]

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    def project(self, vectors, i):
        """Element bitmask of the i-th coordinates of a carrier subset."""
        if not 0 <= i < len(self.factors):
            raise IndexOutOfRange(f"factor index out of range: {i}")
        out = 0
        for p in iter_bits(self.mask(vectors)):
            out |= 1 << self.carrier[p][i]
        return out

    def coord_mask(self, i, element):
        """Carrier bitmask of all vectors whose i-th coordinate is `element`."""
        if self._coord_masks is None:
            masks = [{} for _ in self.factors]
            for p, u in enumerate(self.carrier):
                for k, a in enumerate(u):
                    masks[k][a] = masks[k].get(a, 0) | 1 << p
            self._coord_masks = masks
        return self._coord_masks[i].get(element, 0)

    def image(self, mask, kind, a):
        """Bitmask of {a + q : q in mask} (kind "add", a a carrier position)
        or of {a * q : q in mask} (kind "smul", a a scalar index).

        Positions are row-major over the factor member lists, so changing
        coordinate i from e to e' moves the whole slab coord_mask(i, e) by one
        bit offset. The map acts on one coordinate at a time, each step a few
        masked shifts of the whole bitmask; ideals are closed under join and
        under meet with any scalar, so no shift leaves the carrier. The steps
        of each (kind, a) are validated and cached on first use.
        """
        steps = self._steps.get((kind, a))
        if steps is None:
            steps = self._image_steps(kind, a)
        for moves in steps:
            out = 0
            for slab, shift in moves:
                if shift >= 0:
                    out |= (mask & slab) << shift
                else:
                    out |= (mask & slab) >> -shift
            mask = out
        return mask

    def _image_steps(self, kind, a):
        """Validate (kind, a) and cache its per-coordinate move lists."""
        if kind == "add":
            self._check(a)
            xs = self.carrier[a]
        elif kind == "smul":
            if not 0 <= a < self.lattice.n:
                raise IndexOutOfRange(f"scalar index out of range: {a}")
            xs = (a,) * len(self.factors)
        else:
            raise ValueError(f"unknown image kind: {kind!r}")
        steps = []
        for i, x in enumerate(xs):
            moves = self._moves.get((kind, i, x))
            if moves is None:
                moves = self._moves[kind, i, x] = self._slab_moves(kind, i, x)
            if moves:
                steps.append(moves)
        steps = self._steps[kind, a] = tuple(steps)
        return steps

    def _slab_moves(self, kind, i, x):
        """[(slab, shift)] for e -> join(x, e) or meet(x, e) on coordinate i.

        Slabs with equal shifts are merged; an identity map gives [].
        """
        op = self.lattice.join if kind == "add" else self.lattice.meet
        members = list(iter_bits(self.factors[i].members))
        loc = {e: k for k, e in enumerate(members)}
        stride = prod(f.members.bit_count() for f in self.factors[i + 1:])
        by_shift = {}
        for e in members:
            shift = (loc[op[x][e]] - loc[e]) * stride
            by_shift[shift] = by_shift.get(shift, 0) | self.coord_mask(i, e)
        if by_shift.keys() == {0}:
            return []
        return [(slab, shift) for shift, slab in by_shift.items()]

    def factor_qm(self, i):
        """The one-factor canonical quasimodule on factor i (same scalars)."""
        if not 0 <= i < len(self.factors):
            raise IndexOutOfRange(f"factor index out of range: {i}")
        qm = self._factor_qms.get(i)
        if qm is None:
            qm = canonical(self.lattice, (self.factors[i],))
            self._factor_qms[i] = qm
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
    base = [lattice.bottom] * len(qm.factors)
    out = []
    for i, f in enumerate(qm.factors):
        q = f.max_element
        if f.members != lattice.down[q]:
            raise FactorNotPrincipal(
                f"factor {i} is not the interval below {lattice.names[q]!r}")
        coords = list(base)
        coords[i] = q
        out.append(qm.position(tuple(coords)))
    if check:
        from .subquasi import SubQM, is_basis

        if not is_basis(SubQM(qm, qm.full_mask), out):
            raise BasisCheckFailed(f"standard basis {out} is not a basis")
    return out


# -- raw quasimodule data and axiom verification -----------------------------

@dataclass(frozen=True)
class RawQM:
    """Bare operation tables over an abstract carrier, to be axiom-checked.

    `add` is size x size, `smul` is |L| x size, both holding carrier indices.
    """

    lattice: Lattice
    add: tuple
    smul: tuple
    zero: int

    @property
    def size(self):
        return len(self.add)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

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

def parse_qm(text, base_dir=".", source="<qm>"):
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
            lattice = load_lattice(ref, base_dir)
            continue
        if line.startswith("factor:"):
            if lattice is None:
                raise ParseError("'factor:' before 'lattice:'", source, lineno)
            tokens = line[len("factor:"):].split()
            if len(tokens) >= 2 and tokens[0] == "principal":
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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_qm(text, base_dir=os.path.dirname(os.path.abspath(path)),
                    source=str(path))
