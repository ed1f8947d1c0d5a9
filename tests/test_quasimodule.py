import random

import pytest
from hypothesis import given, settings, strategies as st

from quasimodules import (
    RawQM,
    builtin,
    canonical,
    parse_qm,
    principal_ideal,
    standard_basis,
    verify_axioms,
)
from quasimodules.bitset import iter_bits
from quasimodules.errors import (
    CarrierTooLarge,
    FactorNotIdeal,
    IndexOutOfRange,
    NotInCarrier,
    ParseError,
)

from conftest import KERNEL_INSTANCES, qm_from, sparse_mask


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


def test_untabulated_operations_on_large_carrier():
    chain = builtin("chain_10")
    qm = canonical(chain, (principal_ideal(chain, chain.top),) * 3)
    assert qm.size == 1000 and qm._add is None
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
    assert qm.image(mask, "add", p) == want
    for c in range(qm.lattice.n):
        want = 0
        for q in iter_bits(mask):
            want |= 1 << qm.smul(c, q)
        assert qm.image(mask, "smul", c) == want


def test_image_rejects_bad_arguments(ex1_qm):
    with pytest.raises(NotInCarrier):
        ex1_qm.image(1, "add", ex1_qm.size)
    with pytest.raises(IndexOutOfRange):
        ex1_qm.image(1, "smul", ex1_qm.lattice.n)
    with pytest.raises(ValueError):
        ex1_qm.image(1, "meet", 0)


def test_tables_match_coordinatewise_definition():
    # tables are composed factor by factor; check them against coordinates
    for qm in (qm_from("n5", ["*", "a"]), qm_from("boolean_3", ["*", "*", "ab"])):
        join, meet = qm.lattice.join, qm.lattice.meet
        for p, u in enumerate(qm.carrier):
            for q, v in enumerate(qm.carrier):
                assert qm.carrier[qm._add[p][q]] == tuple(join[a][b] for a, b in zip(u, v))
            for c in range(qm.lattice.n):
                assert qm.carrier[qm._smul[c][p]] == tuple(meet[c][a] for a in u)


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
