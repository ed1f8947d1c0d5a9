import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from quasimodules import (
    RawQM,
    all_subquasimodules,
    builtin,
    canonical,
    parse_qm,
    principal_ideal,
    product_mask,
    read_qm_file,
    standard_basis,
    verify_axioms,
)
from quasimodules.bitset import iter_bits
from quasimodules.verify import SearchConfig
from quasimodules.verify.search import _exhaustive_lattices, _factor_variants
from quasimodules.errors import (
    CarrierTooLarge,
    FactorNotIdeal,
    IndexOutOfRange,
    NotInCarrier,
    ParseError,
)

from conftest import KERNEL_INSTANCES, SPECS, qm_from, sparse_mask


def test_carrier_enumeration(ex1_qm):
    assert ex1_qm.size == 10
    assert ex1_qm.coords(ex1_qm.zero) == (0, 0)
    # row-major over sorted factor members
    assert [ex1_qm.vector_labels(p) for p in range(4)] == [
        ("0", "0"), ("0", "a"), ("a", "0"), ("a", "a")]


def test_add_and_smul(ex1_qm):
    qm = ex1_qm
    a0, b0 = qm.vector("a", "0"), qm.vector("b", "0")
    assert qm.vector_labels(qm.add(a0, b0)) == ("1", "0")
    assert qm.add(a0, qm.zero) == a0
    one0 = qm.vector("1", "0")
    for x in "0abc1":
        got = qm.smul(qm.lattice.index(x), one0)
        assert qm.vector_labels(got) == (x, "0")


def test_not_in_carrier(ex1_qm):
    with pytest.raises(NotInCarrier):
        ex1_qm.add(0, 99)
    with pytest.raises(NotInCarrier):
        ex1_qm.position((4, 4))  # (1,1) is outside N5 x [0,a]
    with pytest.raises(IndexOutOfRange):
        ex1_qm.smul(99, 0)


def test_single_point_quasimodule(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert qm.size == 1
    assert qm.add(0, 0) == 0


def test_carrier_cap(n5):
    with pytest.raises(CarrierTooLarge):
        canonical(n5, (principal_ideal(n5, n5.top),) * 3, max_carrier=100)


def test_factor_not_ideal(n5, m3):
    with pytest.raises(FactorNotIdeal):
        canonical(n5, ())
    with pytest.raises(FactorNotIdeal):
        canonical(n5, (principal_ideal(m3, m3.top),))


def test_axioms_pass_on_canonical(ex1_qm, m3_qm):
    assert verify_axioms(ex1_qm).ok
    assert verify_axioms(m3_qm).ok


def test_axioms_pass_on_trivial(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert verify_axioms(qm).ok


def test_axioms_catch_broken_commutativity():
    chain = builtin("chain_2")
    # swap one entry of the add table for the pair (0, 1)
    add = ((0, 0), (1, 1))  # 0 + 1 = 0 but 1 + 0 = 1
    smul = ((0, 0), (0, 1))
    raw = RawQM(chain, add, smul, zero=0)
    report = verify_axioms(raw)
    failed = {c.name: c for c in report.failures()}
    assert "add.commutative" in failed
    assert failed["add.commutative"].witness == (0, 1)


def test_axioms_validate_table_shape():
    chain = builtin("chain_2")
    with pytest.raises(ValueError):
        verify_axioms(RawQM(chain, ((0, 0),), ((0,), (0,)), zero=0))


def test_inner_product(ex1_qm):
    qm = ex1_qm
    names = qm.lattice.names
    assert names[qm.inner(qm.vector("a", "0"), qm.vector("b", "0"))] == "0"
    assert names[qm.inner(qm.vector("1", "0"), qm.vector("a", "0"))] == "a"
    for p in range(qm.size):
        assert qm.inner(p, qm.zero) == qm.lattice.bottom


def test_orthogonality(ex1_qm, m3_qm):
    assert not ex1_qm.orthogonal(ex1_qm.vector("1", "0"), ex1_qm.vector("a", "0"))
    for p in range(ex1_qm.size):
        assert ex1_qm.orthogonal(p, ex1_qm.zero)
    assert m3_qm.orthogonal(m3_qm.vector("b", "0"), m3_qm.vector("a", "0"))
    assert not m3_qm.orthogonal(m3_qm.vector("1", "0"), m3_qm.vector("a", "0"))


def test_standard_basis(ex1_qm, n5, m3):
    labels = [ex1_qm.vector_labels(p) for p in standard_basis(ex1_qm)]
    assert labels == [("1", "0"), ("0", "a")]
    single = canonical(n5, (principal_ideal(n5, n5.index("c")),))
    assert [single.vector_labels(p) for p in standard_basis(single)] == [("c",)]
    square = qm_from("m3", ["a", "a"])
    assert [square.vector_labels(p) for p in standard_basis(square)] == [
        ("a", "0"), ("0", "a")]


def test_project(ex1_qm):
    qm = ex1_qm
    p8 = [qm.vector(*v) for v in ((("0", "0")), ("a", "0"), ("c", "0"))]
    assert qm.lattice.labels(qm.project(p8, 0)) == ("0", "a", "c")
    p12 = [qm.vector(*v) for v in (("0", "0"), ("0", "a"), ("b", "0"), ("b", "a"))]
    assert qm.lattice.labels(qm.project(p12, 1)) == ("0", "a")
    assert qm.project([qm.zero], 0) == 1 << qm.lattice.bottom
    with pytest.raises(IndexOutOfRange):
        qm.project([qm.zero], 5)


def test_parse_qm_builtin_reference():
    qm = parse_qm("lattice: builtin:n5\nfactor: principal 1\nfactor: principal a\n")
    assert qm.size == 10
    qm2 = parse_qm("lattice: builtin:n5\nfactor: set 0 a c\n")
    assert qm2.size == 3


def test_parse_qm_errors():
    with pytest.raises(ParseError):
        parse_qm("factor: principal a\n")
    with pytest.raises(ParseError):
        parse_qm("lattice: builtin:n5\n")
    with pytest.raises(ParseError) as err:
        parse_qm("lattice: builtin:n5\nfactor: set 0 a b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_qm("lattice: builtin:n5\nfactor: principal zz\n")
    # a bare form names the form it expects
    for form, message in (("principal", "expected 'factor: principal LABEL'"),
                          ("set", "expected 'factor: set LABEL...'")):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_qm(f"lattice: builtin:n5\nfactor: {form}\n")
        assert err.value.line == 2


def test_untabulated_operations_on_large_carrier():
    chain = builtin("chain_10")
    qm = canonical(chain, (principal_ideal(chain, chain.top),) * 3)
    assert qm.size == 1000
    p, q = qm.position((3, 5, 2)), qm.position((4, 1, 9))
    assert qm.coords(qm.add(p, q)) == (4, 5, 9)
    assert qm.coords(qm.smul(4, p)) == (3, 4, 2)
    assert qm.inner(p, q) == 3
    assert qm.orthogonal(qm.position((0, 0, 2)), qm.position((5, 9, 0)))


# -- subset images (CanonicalQM.image) -----------------------------------------

@st.composite
def qm_mask_vector(draw):
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    return qm, sparse_mask(draw, qm), draw(st.integers(0, qm.size - 1))


@given(qm_mask_vector())
@settings(max_examples=60, deadline=None)
def test_image_matches_per_element(case):
    qm, mask, p = case
    want = 0
    for q in iter_bits(mask):
        want |= 1 << qm.add(p, q)
    assert qm.image(mask, p) == want


def test_image_rejects_bad_arguments(ex1_qm):
    with pytest.raises(NotInCarrier):
        ex1_qm.image(1, ex1_qm.size)


def test_tables_match_coordinatewise_definition():
    for qm in (qm_from("n5", ["*", "a"]), qm_from("boolean_3", ["*", "*", "ab"])):
        join, meet = qm.lattice.join, qm.lattice.meet
        for p, u in enumerate(qm.carrier):
            for q, v in enumerate(qm.carrier):
                assert qm.carrier[qm.add(p, q)] == tuple(join[a][b] for a, b in zip(u, v))
            for c in range(qm.lattice.n):
                assert qm.carrier[qm.smul(c, p)] == tuple(meet[c][a] for a in u)


def test_orthogonal_agrees_with_inner_product():
    # orthogonality is computed componentwise; the inner product is the other route
    for qm in (qm_from("n5", ["*", "a"]), qm_from("n5", ["*", "*"]),
               qm_from("chain_4", ["*", "*"])):
        b = qm.lattice.bottom
        for p in range(qm.size):
            for q in range(qm.size):
                assert qm.orthogonal(p, q) == (qm.inner(p, q) == b)
    qm = qm_from("chain_10", ["*"] * 3)
    rng = random.Random(7)
    for _ in range(2000):
        p, q = rng.randrange(qm.size), rng.randrange(qm.size)
        assert qm.orthogonal(p, q) == (qm.inner(p, q) == qm.lattice.bottom)


def test_scalar_orbits_match_smul():
    specs = [read_qm_file(os.path.join(SPECS, name)) for name in sorted(os.listdir(SPECS))]
    for qm in (*specs, *KERNEL_INSTANCES):
        orbits = qm.scalar_orbits()
        assert len(orbits) == qm.size
        for p in range(qm.size):
            want = 0
            for c in range(qm.lattice.n):
                want |= 1 << qm.smul(c, p)
            assert orbits[p] == want, (qm, p)
        assert qm.scalar_orbits() is orbits


# -- strided slabs and shared factor quasimodules ------------------------------

def walk_slabs(qm):
    """The former slabs(), kept as the oracle: one walk over every vector
    and coordinate."""
    masks = [{} for _ in qm.factors]
    for p, u in enumerate(qm.carrier):
        for k, a in enumerate(u):
            masks[k][a] = masks[k].get(a, 0) | 1 << p
    return tuple(tuple(sorted(m.items())) for m in masks)


def product_instances():
    """(label, qm): the bundled specs, every lattice up to 5 elements with
    each factor tuple the search tries, and two products of three and four
    factors of unequal sizes."""
    for spec in sorted(os.listdir(SPECS)):
        yield spec, read_qm_file(os.path.join(SPECS, spec))
    cfg = SearchConfig(max_lattice_size=5)
    for n in range(1, 6):
        for k, lat in enumerate(_exhaustive_lattices(n)):
            for factors in _factor_variants(lat, cfg):
                yield f"lattice {n}.{k} {[f.members for f in factors]}", canonical(lat, factors)
    # sizes 5, 3, 2 and 7, 3, 4, 2
    yield "n5 x [0,c] x [0,a]", qm_from("n5", ["*", "c", "a"])
    yield "chain_7 x [0,2] x [0,3] x [0,1]", qm_from("chain_7", ["6", "2", "3", "1"])


def test_strided_slabs_match_the_per_vector_walk():
    cases = 0
    for label, qm in product_instances():
        assert qm.slabs() == walk_slabs(qm), label
        cases += 1
    assert cases == 9 + 61 + 2


def test_equal_factors_share_one_factor_quasimodule():
    shared = distinct = 0
    for label, qm in product_instances():
        k = len(qm.factors)
        for i in range(k):
            for j in range(i + 1, k):
                same = qm.factors[i].members == qm.factors[j].members
                assert (qm.factor_qm(i) is qm.factor_qm(j)) == same, (label, i, j)
                shared += same
                distinct += not same
    # bool3.cube, n5.pow4 and the squares among them; ex1 and the mixed ones
    assert shared and distinct


# -- axis vectors and the one-factor lift, against the former converters ---------

def old_axis(qm, i, e):
    """The former hand-built axis tuple, kept as the oracle."""
    coords = [qm.lattice.bottom] * len(qm.factors)
    coords[i] = e
    return qm.position(tuple(coords))


def old_lift(fqm, element_mask):
    """The former one-factor lift of an element subset into the carrier,
    kept as the oracle."""
    out = 0
    for e in iter_bits(element_mask):
        out |= 1 << fqm.position((e,))
    return out


def old_projection(fqm, carrier_mask):
    """The former projection of a one-factor carrier subset back to an
    element subset, kept as the oracle."""
    out = 0
    for p in iter_bits(carrier_mask):
        out |= 1 << fqm.carrier[p][0]
    return out


def test_axis_lift_and_projection_match_the_former_converters():
    subsets = 0
    for spec in sorted(os.listdir(SPECS)):
        qm = read_qm_file(os.path.join(SPECS, spec))
        for i, factor in enumerate(qm.factors):
            for e in iter_bits(factor.members):
                assert qm.axis(i, e) == old_axis(qm, i, e), (spec, i, e)
            fqm = qm.factor_qm(i)
            members = list(iter_bits(factor.members))
            for bits in range(1 << len(members)):
                em = sum(1 << e for k, e in enumerate(members) if bits >> k & 1)
                lifted = old_lift(fqm, em)
                assert product_mask(fqm, [em]) == lifted, (spec, i, em)
                assert fqm.project(lifted, 0) == old_projection(fqm, lifted) == em
                subsets += 1
    assert subsets == 2228


def test_axis_rejects_elements_outside_the_factor(ex1_qm):
    assert ex1_qm.vector_labels(ex1_qm.axis(1, ex1_qm.lattice.index("a"))) == ("0", "a")
    with pytest.raises(NotInCarrier):
        ex1_qm.axis(1, ex1_qm.lattice.index("c"))
    for i in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            ex1_qm.axis(i, ex1_qm.lattice.bottom)


def test_factor_subquasimodules_are_the_down_sets_of_their_members():
    # a factor subquasimodule holds bottom and is closed under join and
    # scalar meet, so it is an ideal: the down-set of its join
    factors = 0
    for label, qm in product_instances():
        down = qm.lattice.down
        for i, factor in enumerate(qm.factors):
            fqm = qm.factor_qm(i)
            got = [fqm.project(m, 0) for m in all_subquasimodules(fqm).nodes]
            assert sorted(got) == sorted({down[q] for q in iter_bits(factor.members)}), label
            factors += 1
    assert factors == 22 + 110 + 7
