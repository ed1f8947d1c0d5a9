import re

import pytest

from quasimodules import (
    Ideal,
    Lattice,
    build_lattice,
    builtin,
    builtin_covers,
    format_lattice,
    is_0_distributive,
    is_distributive,
    is_ideal,
    is_modular,
    parse_lattice,
    principal_ideal,
)
from quasimodules.bitset import iter_bits, mask_of
from quasimodules.errors import (
    IndexOutOfRange,
    NotALattice,
    NotAPoset,
    NotBounded,
    ParseError,
    UnknownBuiltin,
)
from quasimodules.verify import search
from quasimodules.verify.search import _exhaustive_lattices


def test_n5_structure(n5):
    a, b = n5.index("a"), n5.index("b")
    assert n5.meet_join(a, b) == (n5.index("0"), n5.index("1"))
    assert n5.meet_join(a, a) == (a, a)
    assert n5.bottom == n5.index("0")
    assert n5.top == n5.index("1")
    assert len(n5.covers()) == 5


def test_m3_meets(m3):
    a, c = m3.index("a"), m3.index("c")
    assert m3.meet_join(a, c) == (m3.index("0"), m3.index("1"))


def test_meet_join_bounds(n5):
    with pytest.raises(IndexOutOfRange):
        n5.meet_join(0, 99)


def test_builtins_reproduce_from_covers():
    for name in ("n5", "m3", "fig5", "chain_1", "chain_4", "boolean_2", "boolean_3"):
        lattice = builtin(name)
        assert build_lattice(*builtin_covers(name)) == lattice


def test_single_element_lattice():
    lattice = build_lattice(["e"], [("e", "e")])
    assert lattice.bottom == lattice.top == 0


def test_two_maximal_elements_not_bounded():
    # 4-element "diamond minus top": 0 < x < {a, b}, no join of a and b
    with pytest.raises(NotBounded):
        build_lattice(["0", "x", "a", "b"], [("0", "x"), ("x", "a"), ("x", "b")])


def test_cycle_not_a_poset():
    with pytest.raises(NotAPoset):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_no_unique_upper_bound_not_a_lattice():
    # two incomparable middles below two incomparable uppers
    with pytest.raises(NotALattice):
        build_lattice(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "1"), ("d", "1")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        build_lattice(["x", "x"], [])


def test_property_checks_on_builtins(n5, m3):
    assert is_0_distributive(n5) == (True, None)
    ok, witness = is_modular(n5)
    assert not ok and witness == tuple(n5.index(x) for x in "abc")
    ok, witness = is_0_distributive(m3)
    assert not ok and witness == tuple(m3.index(x) for x in "abc")
    assert is_modular(m3)[0]
    assert not is_distributive(m3)[0]
    boolean = builtin("boolean_2")
    assert is_distributive(boolean)[0] and is_modular(boolean)[0]
    chain = builtin("chain_4")
    assert is_0_distributive(chain)[0]


def test_fig5_classification(fig5):
    assert fig5.n == 6
    assert is_0_distributive(fig5)[0]
    assert not is_modular(fig5)[0]


def test_implication_chain_on_builtins():
    # distributive implies both modular and 0-distributive; modular alone
    # does not imply 0-distributive (m3 is the standard counterexample)
    for name in ("n5", "m3", "fig5", "chain_3", "boolean_2", "boolean_3"):
        lattice = builtin(name)
        if is_distributive(lattice)[0]:
            assert is_modular(lattice)[0]
            assert is_0_distributive(lattice)[0]
    m3 = builtin("m3")
    assert is_modular(m3)[0] and not is_0_distributive(m3)[0]


def test_principal_ideal(n5, fig5):
    ideal = principal_ideal(n5, n5.index("a"))
    assert n5.labels(ideal.members) == ("0", "a")
    assert is_ideal(n5, ideal.members)
    assert principal_ideal(n5, n5.top).members == n5.full_mask
    assert fig5.labels(principal_ideal(fig5, fig5.index("b")).members) == ("0", "b")


def test_is_ideal(n5):
    good = mask_of(n5.index(x) for x in ("0", "a", "c"))
    assert is_ideal(n5, good)
    bad = mask_of(n5.index(x) for x in ("0", "a", "b"))  # a join b = 1 missing
    assert not is_ideal(n5, bad)
    assert is_ideal(n5, 1 << n5.bottom)
    assert not is_ideal(n5, 0)


def test_ideal_from_members_validates(n5):
    with pytest.raises(Exception):
        Ideal.from_members(n5, ["0", "a", "b"])
    ideal = Ideal.from_members(n5, ["0", "a", "c"])
    assert ideal.max_element == n5.index("c")


def test_unknown_builtin():
    for name in ("zz", "chain_x", "chain_0", "boolean_9"):
        with pytest.raises(UnknownBuiltin):
            builtin(name)


def test_absorption_and_order_consistency_exhaustive():
    for name in ("n5", "m3", "fig5", "boolean_3", "chain_5"):
        lattice = builtin(name)
        for i in range(lattice.n):
            for j in range(lattice.n):
                m, j_ = lattice.meet_join(i, j)
                assert lattice.meet[i][j_] == i
                assert lattice.join[i][m] == i
                assert lattice.le(i, j) == (m == i) == (j_ == j)


def test_parse_format_roundtrip(n5):
    text = format_lattice(n5)
    again = parse_lattice(text)
    assert again == n5


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\nelements: x y\n# another\nx <= y\n"
    lattice = parse_lattice(text)
    assert lattice.n == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lattice("elements: a b\na <= z\n", source="f.lat")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_lattice("a <= b\n")
    with pytest.raises(ParseError):
        parse_lattice("elements: a b\na < b\n")


def test_fig5_covers(fig5):
    got = {(fig5.names[i], fig5.names[j]) for i, j in fig5.covers()}
    assert got == {("0", "a"), ("0", "b"), ("a", "c"), ("c", "d"),
                   ("b", "d"), ("d", "1")}


def test_covers_match_definition():
    # j covers i iff i < j with no element strictly between them (cubic scan)
    def definition(lat):
        return [(i, j) for i in range(lat.n) for j in range(lat.n)
                if i != j and lat.le(i, j)
                and not any(k not in (i, j) and lat.le(i, k) and lat.le(k, j)
                            for k in range(lat.n))]

    lattices = [builtin(name) for name in
                ("n5", "m3", "fig5", "chain_5", "boolean_3", "boolean_4")]
    lattices += [lat for n in range(1, 7) for lat in _exhaustive_lattices(n)]
    for lat in lattices:
        assert lat.covers() == definition(lat)


# -- the table self-check ----------------------------------------------------------

def cubic_self_check(lat):
    """The self-check as a triple loop: the message of its first fault, or None."""
    n, meet, join, up, names = lat.n, lat.meet, lat.join, lat.up, lat.names
    for i in range(n):
        for j in range(n):
            if meet[i][join[i][j]] != i or join[i][meet[i][j]] != i:
                return f"absorption fails at ({names[i]}, {names[j]})"
            le = bool(up[i] >> j & 1)
            if (meet[i][j] == i) != le or (join[i][j] == j) != le:
                return f"order and tables disagree at ({names[i]}, {names[j]})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (meet[meet[i][j]][k] != meet[i][meet[j][k]]
                        or join[join[i][j]][k] != join[i][join[j][k]]):
                    return f"associativity fails at ({names[i]}, {names[j]}, {names[k]})"
    return None


def tampered(lat, table, x, y, value):
    """A copy of lat whose table has value at (x, y) and (y, x), built past
    the constructor so that only the self-check judges it."""
    rows = [list(row) for row in getattr(lat, table)]
    rows[x][y] = rows[y][x] = value
    out = object.__new__(Lattice)
    for name in ("n", "names", "up", "meet", "join"):
        object.__setattr__(out, name, getattr(lat, name))
    object.__setattr__(out, table, tuple(map(tuple, rows)))
    return out


def self_check_message(lat):
    try:
        lat._self_check()
    except NotALattice as exc:
        return str(exc)
    return None


TAIL_DIAMOND = build_lattice("0 x a b 1".split(),
                             [("0", "x"), ("x", "a"), ("x", "b"), ("a", "1"), ("b", "1")])


@pytest.mark.parametrize("lattice, table, x, y, value, message", [
    ("fig5", "meet", "0", "0", "a", "absorption fails at (0, 0)"),
    ("fig5", "meet", "a", "b", "a", "order and tables disagree at (a, b)"),
    ("fig5", "join", "a", "b", "1", "associativity fails at (a, b, c)"),
    ("tail-diamond", "meet", "a", "b", "0", "associativity fails at (x, a, b)"),
])
def test_self_check_names_the_first_fault(lattice, table, x, y, value, message):
    lat = TAIL_DIAMOND if lattice == "tail-diamond" else builtin(lattice)
    bad = tampered(lat, table, lat.index(x), lat.index(y), lat.index(value))
    with pytest.raises(NotALattice, match=f"^{re.escape(message)}$"):
        bad._self_check()


def test_self_check_agrees_with_the_triple_loop_on_every_one_entry_tamper():
    faults = 0
    for lat in (builtin("n5"), builtin("m3"), builtin("fig5"), builtin("chain_1"),
                TAIL_DIAMOND):
        assert self_check_message(lat) is None
        for table in ("meet", "join"):
            for x in range(lat.n):
                for y in range(x, lat.n):
                    for value in range(lat.n):
                        bad = tampered(lat, table, x, y, value)
                        want = cubic_self_check(bad)
                        assert self_check_message(bad) == want, (lat, table, x, y, value)
                        faults += want is not None
    assert faults > 300


# -- meets and joins -------------------------------------------------------------

def bound_search_tables(names, up):
    """The former constructor's search, kept as the oracle: per pair, the
    first common lower (upper) bound whose down-set (up-set) holds all the
    others. (meet, join), or the NotALattice message of the first failure."""
    n = len(names)
    down = [0] * n
    for i in range(n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for rel, table, what in ((down, meet, "greatest lower"), (up, join, "least upper")):
                common = rel[i] & rel[j]
                found = [c for c in iter_bits(common) if common & ~rel[c] == 0]
                if not found:
                    return (f"elements {names[i]!r} and {names[j]!r} "
                            f"have no unique {what} bound")
                table[i][j] = table[j][i] = found[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def relabelled_up(up):
    """The same order with element i relabelled n - 1 - i, top first."""
    n = len(up)
    return tuple(sum(1 << (n - 1 - j) for j in iter_bits(up[i])) for i in reversed(range(n)))


def test_meet_and_join_lookup_match_the_bound_search(monkeypatch):
    # every up-tuple the exhaustive search closes for n <= 7, lattice or not,
    # and each relabelled top first: a natural labelling meets a missing
    # join first
    ups = []
    real = search.Lattice
    monkeypatch.setattr(search, "Lattice",
                        lambda names, up: ups.append((names, up)) or real(names, up))
    for n in range(1, 8):
        for _ in _exhaustive_lattices(n):
            pass
    lattices, messages = 0, set()
    for names, up in ups + [(names, relabelled_up(up)) for names, up in ups]:
        want = bound_search_tables(names, up)
        try:
            lat = Lattice(names, up)
        except NotALattice as exc:
            assert str(exc) == want, up
            messages.add(want.split(" have ")[1])
            continue
        assert (lat.meet, lat.join) == want, up
        lattices += 1
    assert lattices == 2 * (1 + 1 + 1 + 2 + 7 + 39 + 320)
    assert messages == {"no unique greatest lower bound", "no unique least upper bound"}
