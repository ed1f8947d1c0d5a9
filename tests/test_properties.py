"""Property-based suites over randomly generated small lattices and
quasimodules. These hammer the algebraic laws with inputs the golden tests
never touch.
"""

from hypothesis import assume, given, settings, strategies as st

from quasimodules import (
    SubQM,
    build_lattice,
    canonical,
    generate,
    is_0_distributive,
    is_closed,
    is_ideal,
    is_splitting,
    is_subquasimodule,
    perp,
    principal_ideal,
    sum_set,
    verify_axioms,
)
from quasimodules.bitset import iter_bits
from quasimodules.errors import Error
from quasimodules.galois import factor_zero_distributivity

from conftest import factorize_closed


@st.composite
def lattices(draw, max_size=6):
    """Random bounded lattice: random middle-pair order bits over a fixed
    linear extension, rejecting draws that fail the lattice laws."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    names = tuple(f"e{i}" for i in range(n))
    pairs = [(names[0], names[j]) for j in range(1, n)]
    pairs += [(names[i], names[n - 1]) for i in range(n - 1)]
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))
    try:
        return build_lattice(names, pairs)
    except Error:
        assume(False)


@st.composite
def quasimodules_(draw, max_size=5, max_factors=2):
    lattice = draw(lattices(max_size=max_size))
    k = draw(st.integers(min_value=1, max_value=max_factors))
    factors = [principal_ideal(lattice, draw(st.integers(0, lattice.n - 1)))
               for _ in range(k)]
    return canonical(lattice, factors)


@given(lattices())
@settings(max_examples=60, deadline=None)
def test_lattice_laws(lat):
    for i in range(lat.n):
        for j in range(lat.n):
            m, jo = lat.meet_join(i, j)
            assert m == lat.meet[j][i] and jo == lat.join[j][i]
            assert lat.le(i, j) == (m == i) == (jo == j)
            assert lat.meet[i][jo] == i and lat.join[i][m] == i


@given(lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_principal_ideals_are_ideals(lat, data):
    q = data.draw(st.integers(0, lat.n - 1))
    ideal = principal_ideal(lat, q)
    assert is_ideal(lat, ideal.members)
    assert ideal.max_element == q


@given(lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_is_ideal_matches_definition(lat, data):
    mask = data.draw(st.integers(0, lat.full_mask))
    els = list(iter_bits(mask))
    expected = bool(els)
    for x in els:
        if lat.down[x] & ~mask:
            expected = False
    for x in els:
        for y in els:
            if not mask >> lat.join[x][y] & 1:
                expected = False
    assert is_ideal(lat, mask) == expected


@given(quasimodules_())
@settings(max_examples=40, deadline=None)
def test_canonical_satisfies_axioms(qm):
    assert verify_axioms(qm).ok


@given(quasimodules_(), st.data())
@settings(max_examples=60, deadline=None)
def test_inner_product_laws(qm, data):
    p = data.draw(st.integers(0, qm.size - 1))
    q = data.draw(st.integers(0, qm.size - 1))
    assert qm.inner(p, q) == qm.inner(q, p)
    assert qm.orthogonal(p, q) == (qm.inner(p, q) == qm.lattice.bottom)
    c = data.draw(st.integers(0, qm.lattice.n - 1))
    d = data.draw(st.integers(0, qm.lattice.n - 1))
    assert qm.smul(c, qm.smul(d, p)) == qm.smul(qm.lattice.meet[c][d], p)


@given(quasimodules_(), st.data())
@settings(max_examples=60, deadline=None)
def test_generation_closure_laws(qm, data):
    a = data.draw(st.integers(0, qm.full_mask))
    b = a | data.draw(st.integers(0, qm.full_mask))
    ga = generate(qm, a).members
    gb = generate(qm, b).members
    assert a & ~ga == 0
    assert ga & ~gb == 0
    assert generate(qm, ga).members == ga
    assert is_subquasimodule(qm, ga)[0]


@given(quasimodules_(), st.data())
@settings(max_examples=60, deadline=None)
def test_galois_connection_laws(qm, data):
    a = data.draw(st.integers(0, qm.full_mask))
    b = data.draw(st.integers(0, qm.full_mask))
    pa, pb = perp(qm, a), perp(qm, b)
    assert a & ~perp(qm, pa) == 0
    if a & ~b == 0:
        assert pb & ~pa == 0
    assert perp(qm, perp(qm, pa)) == pa
    assert (a & ~pb == 0) == (b & ~pa == 0)
    assert pa & pb == perp(qm, a | b)
    assert a & pa & ~(1 << qm.zero) == 0


@given(quasimodules_(), st.data())
@settings(max_examples=40, deadline=None)
def test_companion_is_product_of_projections(qm, data):
    from quasimodules.galois import product_mask

    a = data.draw(st.integers(0, qm.full_mask))
    parts = []
    for i in range(len(qm.factors)):
        fqm = qm.factor_qm(i)
        fperp = perp(fqm, product_mask(fqm, [qm.project(a, i)]))
        parts.append(fqm.project(fperp, 0))
    assert perp(qm, a) == product_mask(qm, parts)


@given(quasimodules_(max_size=5, max_factors=1), st.data())
@settings(max_examples=40, deadline=None)
def test_companion_closure_iff_zero_distributive_witnessed(qm, data):
    # with 0-distributive factors every companion is a subquasimodule
    all_ok = all(ok for _, ok, _ in factor_zero_distributivity(qm))
    if all_ok:
        a = data.draw(st.integers(0, qm.full_mask))
        assert is_subquasimodule(qm, perp(qm, a))[0]
    else:
        found = any(not is_subquasimodule(qm, perp(qm, 1 << p))[0]
                    for p in range(qm.size))
        assert found


@given(quasimodules_(max_size=4, max_factors=2))
@settings(max_examples=20, deadline=None)
def test_splitting_subquasimodules_are_closed(qm):
    from quasimodules import all_subquasimodules

    for mask in all_subquasimodules(qm).nodes:
        sub = SubQM(qm, mask)
        if is_splitting(qm, sub):
            assert is_closed(qm, mask)


@given(quasimodules_(max_size=4, max_factors=1), st.data())
@settings(max_examples=30, deadline=None)
def test_separation_by_inner_products(qm, data):
    p = data.draw(st.integers(0, qm.size - 1))
    q = data.draw(st.integers(0, qm.size - 1))
    if p != q:
        assert any(qm.inner(p, z) != qm.inner(q, z) for z in range(qm.size))


@given(quasimodules_(max_size=4, max_factors=2), st.data())
@settings(max_examples=30, deadline=None)
def test_sum_set_contains_both_halves_through_zero(qm, data):
    a = data.draw(st.integers(0, qm.full_mask)) | 1 << qm.zero
    b = data.draw(st.integers(0, qm.full_mask)) | 1 << qm.zero
    sums = sum_set(qm, a, b)
    assert a & ~sums == 0 and b & ~sums == 0


@given(quasimodules_(max_size=5, max_factors=2), st.data())
@settings(max_examples=40, deadline=None)
def test_companion_of_generated_set_with_zero_distributive_factors(qm, data):
    assume(all(ok for _, ok, _ in factor_zero_distributivity(qm)))
    a = data.draw(st.integers(0, qm.full_mask))
    assert perp(qm, a) == perp(qm, generate(qm, a).members)


@given(quasimodules_(max_size=5, max_factors=2))
@settings(max_examples=25, deadline=None)
def test_closed_factorization_roundtrip(qm):
    from quasimodules import closed_subquasimodules
    from quasimodules.galois import product_mask

    assume(all(ok for _, ok, _ in factor_zero_distributivity(qm)))
    closed = closed_subquasimodules(qm)
    for mask in closed.nodes:
        witness = factorize_closed(qm, SubQM(qm, mask))
        assert product_mask(qm, witness.factor_masks) == mask


@given(quasimodules_(max_size=5, max_factors=2), st.data())
@settings(max_examples=40, deadline=None)
def test_double_companion_is_least_closed_superset(qm, data):
    assume(all(ok for _, ok, _ in factor_zero_distributivity(qm)))
    from quasimodules import closed_subquasimodules, double_perp

    a = data.draw(st.integers(0, qm.full_mask))
    dd = double_perp(qm, a)
    assert isinstance(dd, SubQM)
    assert a & ~dd.members == 0
    for node in closed_subquasimodules(qm).nodes:
        if a & ~node == 0:
            assert dd.members & ~node == 0
