"""Finite bounded lattices: construction, validation, structural properties.

Elements are dense indices 0..n-1 carrying string labels. The order relation
is stored as per-element bitmasks and meet/join are fully tabulated, so every
downstream enumeration pays O(1) per lattice operation. The supported size
envelope is roughly 64 elements.
"""

from __future__ import annotations

import os
from operator import itemgetter

from .bitset import cover_pairs, iter_bits, mask_of
from .errors import (
    FactorNotIdeal,
    IndexOutOfRange,
    NotALattice,
    NotAPoset,
    NotBounded,
    ParseError,
    UnknownBuiltin,
)


# -- records -------------------------------------------------------------------

class Record:
    """Base of the package's record classes: equality, hashing, pickling and
    repr over the fields named in `__slots__`, in order.

    Each subclass writes its own `__init__`: a generic one is several times
    slower, and SubQM and Ideal are built on hot paths.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record whose fields, once `__init__` has set them through
    `set_field`, cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


set_field = object.__setattr__


# -- lattices ------------------------------------------------------------------

class Lattice:
    """A validated finite bounded lattice.

    Immutable after construction; safe to share between threads. Use
    :func:`build_lattice` or :func:`builtin` instead of calling this
    directly, unless `up` is already a partial order: per element, the
    bitmask of every element above it, itself included.
    """

    __slots__ = ("n", "names", "up", "down", "meet", "join", "bottom", "top",
                 "_name_index")

    def __init__(self, names, up):
        n = len(names)
        self.n = n
        self.names = tuple(names)
        self.up = tuple(up)
        self._name_index = {lab: i for i, lab in enumerate(self.names)}

        full = (1 << n) - 1
        down = [0] * n
        for i in range(n):
            for j in iter_bits(up[i]):
                down[j] |= 1 << i
        self.down = tuple(down)

        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if not bottoms:
            raise NotBounded("no bottom element (some pair has no common lower bound)")
        if not tops:
            raise NotBounded("no top element (some pair has no common upper bound)")
        self.bottom = bottoms[0]
        self.top = tops[0]

        # in a partial order, g is the greatest lower bound of i and j iff
        # their common down-set is down[g]; dually for joins
        at_down = {d: g for g, d in enumerate(down)}
        at_up = {u: s for s, u in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g = at_down.get(down[i] & down[j])
                if g is None:
                    raise NotALattice(
                        f"elements {self.names[i]!r} and {self.names[j]!r} "
                        "have no unique greatest lower bound")
                meet[i][j] = meet[j][i] = g
                s = at_up.get(up[i] & up[j])
                if s is None:
                    raise NotALattice(
                        f"elements {self.names[i]!r} and {self.names[j]!r} "
                        "have no unique least upper bound")
                join[i][j] = join[j][i] = s
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self._self_check()

    def _self_check(self):
        # Exhaustive absorption / order-consistency / associativity check.
        # These laws are forced by the glb/lub construction; the check guards
        # table bugs, and instances are small enough that it stays cheap.
        n, meet, join, up = self.n, self.meet, self.join, self.up
        for i in range(n):
            mi, ji = meet[i], join[i]
            for j in range(n):
                if mi[ji[j]] != i or ji[mi[j]] != i:
                    raise NotALattice(
                        f"absorption fails at ({self.names[i]}, {self.names[j]})")
                le = up[i] >> j & 1
                if (mi[j] == i) != bool(le) or (ji[j] == j) != bool(le):
                    raise NotALattice("order and tables disagree "
                                      f"at ({self.names[i]}, {self.names[j]})")
        # associativity one row at a time: row k of (i^j)^k against i^(j^k)
        for i in range(n):
            mi, ji = meet[i], join[i]
            for j in range(n):
                mj, jj = meet[j], join[j]
                if n > 1 and (meet[mi[j]] == itemgetter(*mj)(mi)
                              and join[ji[j]] == itemgetter(*jj)(ji)):
                    continue
                mij, jij = meet[mi[j]], join[ji[j]]
                for k in range(n):
                    if mij[k] != mi[mj[k]] or jij[k] != ji[jj[k]]:
                        raise NotALattice("associativity fails "
                                          f"at ({self.names[i]}, {self.names[j]}, {self.names[k]})")

    # -- basic queries ----------------------------------------------------

    def le(self, x, y):
        """True iff x <= y."""
        return bool(self.up[x] >> y & 1)

    def meet_join(self, x, y):
        """(x meet y, x join y) from the precomputed tables."""
        n = self.n
        if not (0 <= x < n and 0 <= y < n):
            raise IndexOutOfRange(f"element index out of range: {x}, {y}")
        return self.meet[x][y], self.join[x][y]

    def index(self, label):
        try:
            return self._name_index[label]
        except KeyError:
            raise IndexOutOfRange(f"unknown element label {label!r}") from None

    def join_of(self, mask):
        """The join of the elements in an element bitmask; bottom for the
        empty mask."""
        join, out = self.join, self.bottom
        for x in iter_bits(mask):
            out = join[out][x]
        return out

    def labels(self, mask):
        """Labels of the elements in an element bitmask, in index order."""
        return tuple(self.names[i] for i in iter_bits(mask))

    def covers(self):
        """Cover pairs (i, j) with j covering i, in lexicographic order."""
        return cover_pairs(self.up)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.names == other.names and self.up == other.up)

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        return f"Lattice({self.n} elements: {' '.join(self.names)})"


def build_lattice(names, leq_pairs):
    """Construct a validated lattice from labels and generating order pairs.

    The pairs may be covers or any generating relation; their
    reflexive-transitive closure is taken first. Raises NotAPoset if the
    closure is not antisymmetric, NotBounded if there is no global bottom or
    top, and NotALattice if some pair lacks a unique meet or join.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        dup = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"duplicate element labels: {dup}")
    n = len(names)
    if n == 0:
        raise NotBounded("an empty element set has no bottom or top")
    index = {lab: i for i, lab in enumerate(names)}
    up = [1 << i for i in range(n)]
    for x, y in leq_pairs:
        if x not in index or y not in index:
            raise ValueError(f"order pair mentions unknown label: {x!r} <= {y!r}")
        up[index[x]] |= 1 << index[y]
    for k in range(n):
        kb = 1 << k
        for i in range(n):
            if up[i] & kb:
                up[i] |= up[k]
    for i in range(n):
        for j in iter_bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise NotAPoset(
                    f"antisymmetry violated: {names[i]!r} <= {names[j]!r} <= {names[i]!r}")
    return Lattice(names, up)


# -- structural properties ------------------------------------------------
#
# Each check returns (holds, witness); the witness is the lexicographically
# smallest violating triple of element indices, or None.

def is_0_distributive(lattice, elements=None):
    """x^z = y^z = 0 implies (x v y)^z = 0, for all x, y, z.

    With an element bitmask (a sublattice such as an ideal), x, y and z
    range over its members only.
    """
    b = lattice.bottom
    meet, join = lattice.meet, lattice.join
    els = range(lattice.n) if elements is None else list(iter_bits(elements))
    for x in els:
        mx = meet[x]
        jx = join[x]
        for y in els:
            my = meet[y]
            mj = meet[jx[y]]
            for z in els:
                if mx[z] == b and my[z] == b and mj[z] != b:
                    return False, (x, y, z)
    return True, None


def is_modular(lattice):
    """x <= z implies x v (y^z) = (x v y)^z, for all x, y, z."""
    n = lattice.n
    meet, join, up = lattice.meet, lattice.join, lattice.up
    for x in range(n):
        jx = join[x]
        ux = up[x]
        for y in range(n):
            my = meet[y]
            mjxy = meet[jx[y]]
            for z in range(n):
                if ux >> z & 1 and jx[my[z]] != mjxy[z]:
                    return False, (x, y, z)
    return True, None


def is_distributive(lattice):
    """x^(y v z) = (x^y) v (x^z), for all x, y, z."""
    n = lattice.n
    meet, join = lattice.meet, lattice.join
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            jy = join[y]
            jmxy = join[mx[y]]
            for z in range(n):
                if mx[jy[z]] != jmxy[mx[z]]:
                    return False, (x, y, z)
    return True, None


# -- ideals ----------------------------------------------------------------

class Ideal(FrozenRecord):
    """A non-empty, down-closed, join-closed element subset.

    Construct through :func:`principal_ideal` or :meth:`Ideal.from_members`;
    both validate. In a finite lattice every ideal is the interval
    [bottom, max] for its maximum element.
    """

    __slots__ = ("lattice", "members")

    def __init__(self, lattice, members):
        set_field(self, "lattice", lattice)
        set_field(self, "members", members)

    @classmethod
    def from_members(cls, lattice, members):
        m = members if isinstance(members, int) else mask_of(
            x if isinstance(x, int) else lattice.index(x) for x in members)
        if not is_ideal(lattice, m):
            raise FactorNotIdeal(
                f"{lattice.labels(m)} is not an ideal (must be non-empty, "
                "down-closed and join-closed)")
        return cls(lattice, m)

    @property
    def size(self):
        return self.members.bit_count()

    @property
    def max_element(self):
        """The maximum member: the join of the members, which a finite
        join-closed set holds. Raises FactorNotIdeal when it does not."""
        q = self.lattice.join_of(self.members)
        if not self.members >> q & 1:
            raise FactorNotIdeal("ideal has no maximum element")
        return q

    def __repr__(self):
        return f"Ideal({{{' '.join(self.lattice.labels(self.members))}}})"


def is_ideal(lattice, members):
    """True iff the element subset is non-empty, down-closed and join-closed:
    in a finite lattice, iff it is the down-set of its join."""
    m = members if isinstance(members, int) else mask_of(members)
    if m == 0 or m >> lattice.n:
        return False
    return lattice.down[lattice.join_of(m)] == m


def principal_ideal(lattice, q):
    """The ideal of everything below q."""
    if not 0 <= q < lattice.n:
        raise IndexOutOfRange(f"element index out of range: {q}")
    return Ideal(lattice, lattice.down[q])


# -- builtin lattices -------------------------------------------------------

_FIXED_BUILTINS = {
    "n5": ("0 a b c 1", ("0 a", "0 b", "a c", "c 1", "b 1")),
    "m3": ("0 a b c 1", ("0 a", "0 b", "0 c", "a 1", "b 1", "c 1")),
    "fig5": ("0 a b c d 1", ("0 a", "0 b", "a c", "c d", "b d", "d 1")),
}

_BOOLEAN_LETTERS = "abcdef"


def builtin_covers(name):
    """(names, cover pairs) for a builtin lattice name."""
    if name in _FIXED_BUILTINS:
        names, pairs = _FIXED_BUILTINS[name]
        return tuple(names.split()), [tuple(p.split()) for p in pairs]
    if name.startswith("chain_"):
        k = _builtin_suffix(name, "chain_")
        if not 1 <= k <= 64:
            raise UnknownBuiltin(f"chain size out of the supported range: {name}")
        names = tuple(str(i) for i in range(k))
        return names, [(str(i), str(i + 1)) for i in range(k - 1)]
    if name.startswith("boolean_"):
        k = _builtin_suffix(name, "boolean_")
        if not 0 <= k <= 6:
            raise UnknownBuiltin(f"boolean exponent out of the supported range: {name}")
        names = tuple(_boolean_label(s) for s in range(1 << k))
        pairs = []
        for s in range(1 << k):
            for b in range(k):
                if not s >> b & 1:
                    pairs.append((_boolean_label(s), _boolean_label(s | 1 << b)))
        return names, pairs
    raise UnknownBuiltin(f"unknown builtin lattice {name!r}")


def _builtin_suffix(name, prefix):
    try:
        return int(name[len(prefix):])
    except ValueError:
        raise UnknownBuiltin(f"unknown builtin lattice {name!r}") from None


def _boolean_label(subset_mask):
    if subset_mask == 0:
        return "0"
    return "".join(_BOOLEAN_LETTERS[b] for b in iter_bits(subset_mask))


def builtin(name):
    """A named builtin lattice: n5, m3, fig5, chain_k or boolean_k."""
    names, pairs = builtin_covers(name)
    return build_lattice(names, pairs)


# -- text format -------------------------------------------------------------
#
# Line-oriented: a header `elements: e1 e2 ... en`, then one `x <= y` line per
# order pair (covers suffice). Lines starting with '#' are comments.

def parse_lattice(text, source="<lattice>"):
    names = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if names is None:
            if not line.startswith("elements:"):
                raise ParseError("expected an 'elements:' header line", source, lineno)
            names = tuple(line[len("elements:"):].split())
            if not names:
                raise ParseError("empty element list", source, lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate element labels", source, lineno)
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "<=":
            raise ParseError(f"expected 'X <= Y', got {line!r}", source, lineno)
        x, _, y = tokens
        if x not in names or y not in names:
            bad = x if x not in names else y
            raise ParseError(f"unknown element label {bad!r}", source, lineno)
        pairs.append((x, y))
    if names is None:
        raise ParseError("missing 'elements:' header line", source)
    return build_lattice(names, pairs)


def format_lattice(lattice):
    """Render a lattice in the text format (header plus cover pairs)."""
    lines = ["elements: " + " ".join(lattice.names)]
    for i, j in lattice.covers():
        lines.append(f"{lattice.names[i]} <= {lattice.names[j]}")
    return "\n".join(lines) + "\n"


def read_text(path):
    """A lattice or quasimodule file's text; bytes that are not UTF-8 raise
    ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                             str(path)) from None


def read_lattice_file(path):
    return parse_lattice(read_text(path), source=str(path))


def load_lattice(ref, base_dir=None):
    """Resolve 'builtin:NAME', or a file path, joined to base_dir if given."""
    if ref.startswith("builtin:"):
        return builtin(ref[len("builtin:"):])
    return read_lattice_file(os.path.join(base_dir or "", ref))
