from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from quasimodules import (
    SubQM,
    SubQMLattice,
    all_subquasimodules,
    canonical,
    closed_subquasimodules,
    find_bases,
    generate,
    is_basis,
    is_generating,
    is_subquasimodule,
    principal_ideal,
    standard_basis,
)
from quasimodules.bitset import bit_key, iter_bits
from quasimodules import subquasi
from quasimodules.errors import (
    BasisCheckFailed,
    EnumerationBudgetExceeded,
    LatticeBoundsMissing,
    NodeSetEscaped,
)
from quasimodules.subquasi import close_mask

import golden
from conftest import KERNEL_INSTANCES, qm_from, sparse_mask


def labels_of(qm, mask):
    return tuple(qm.label_sets(mask))


def test_generate_examples(ex1_qm):
    qm = ex1_qm
    p12 = generate(qm, [qm.vector("0", "a"), qm.vector("b", "0")])
    assert labels_of(qm, p12.members) == (("0", "0"), ("0", "a"), ("b", "0"), ("b", "a"))
    assert generate(qm, []).members == 1 << qm.zero
    p15 = generate(qm, [qm.vector("1", "0")])
    assert labels_of(qm, p15.members) == (
        ("0", "0"), ("a", "0"), ("b", "0"), ("c", "0"), ("1", "0"))


def test_is_subquasimodule_witnesses(ex1_qm, m3_qm):
    ok, witness = is_subquasimodule(ex1_qm, [ex1_qm.vector("a", "0")])
    assert not ok and witness == ("zero",)

    # companion of [0,a] x [0,a] inside M3 x [0,a] fails closure under addition
    qm = m3_qm
    companion = [qm.vector(*v) for v in (("0", "0"), ("b", "0"), ("c", "0"))]
    ok, witness = is_subquasimodule(qm, companion)
    assert not ok
    assert witness == ("add", qm.vector("b", "0"), qm.vector("c", "0"),
                       qm.vector("1", "0"))

    assert is_subquasimodule(qm, [qm.zero]) == (True, None)
    p10 = generate(ex1_qm, [ex1_qm.vector("0", "a"), ex1_qm.vector("a", "0")])
    assert is_subquasimodule(ex1_qm, p10.members) == (True, None)


def test_all_subquasimodules_ex1_vs_brute_force(ex1_qm):
    subs = all_subquasimodules(ex1_qm)
    brute = {m for m in range(1 << ex1_qm.size) if is_subquasimodule(ex1_qm, m)[0]}
    assert set(subs.nodes) == brute
    # the published list misses exactly one subquasimodule
    assert len(subs) == 21
    published = {frozenset(vs) for vs in golden.PUBLISHED_EX1_SUBS}
    computed = {frozenset(labels_of(ex1_qm, m)) for m in subs.nodes}
    assert computed - published == {frozenset(golden.EX1_MISSING_SUB)}
    assert published <= computed


def test_all_subquasimodules_single_factor_ideals(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.top),))
    subs = all_subquasimodules(qm)
    got = {tuple(lab for (lab,) in labels_of(qm, m)) for m in subs.nodes}
    assert got == set(golden.N5_IDEALS)


def test_all_subquasimodules_trivial(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert len(all_subquasimodules(qm)) == 1


def test_canonical_order_and_lattice_ops(ex1_qm):
    subs = all_subquasimodules(ex1_qm)
    sizes = [m.bit_count() for m in subs.nodes]
    assert sizes == sorted(sizes)
    assert subs.nodes[subs.bottom_index] == 1 << ex1_qm.zero
    assert subs.nodes[subs.top_index] == ex1_qm.full_mask
    for i in range(len(subs)):
        for j in range(len(subs)):
            meet_mask = subs.nodes[subs.meet(i, j)]
            assert meet_mask == subs.nodes[i] & subs.nodes[j]
            join_mask = subs.nodes[subs.join(i, j)]
            union = subs.nodes[i] | subs.nodes[j]
            assert union & ~join_mask == 0
            # least upper bound among the nodes
            assert all(join_mask & ~n == 0
                       for n in subs.nodes if union & ~n == 0)


def test_generate_is_closure_operator(ex1_qm):
    qm = ex1_qm
    import random

    rng = random.Random(5)
    for _ in range(60):
        a = rng.getrandbits(qm.size)
        b = a | rng.getrandbits(qm.size)
        ga = generate(qm, a).members
        assert a & ~ga == 0
        assert ga & ~generate(qm, b).members == 0
        assert generate(qm, ga).members == ga


def test_generate_equals_intersection_oracle(ex1_qm):
    subs = all_subquasimodules(ex1_qm)
    for size in (1, 2):
        for combo in combinations(range(ex1_qm.size), size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            expected = ex1_qm.full_mask
            for node in subs.nodes:
                if mask & ~node == 0:
                    expected &= node
            assert generate(ex1_qm, mask).members == expected


def test_is_generating_and_is_basis(ex1_qm):
    qm = ex1_qm
    full = SubQM(qm, qm.full_mask)
    three = [qm.vector("0", "a"), qm.vector("b", "0"), qm.vector("c", "0")]
    assert is_basis(full, three)
    assert is_generating(full, full.members)
    two = [qm.vector("0", "a"), qm.vector("b", "0")]
    assert not is_generating(full, two)
    with pytest.raises(ValueError):
        is_generating(SubQM(qm, 1 << qm.zero), [qm.vector("a", "0")])


def test_standard_basis_removal_generates_kernel(ex1_qm, m3_qm):
    for qm in (ex1_qm, m3_qm, qm_from("n5", ["*", "*"])):
        basis = standard_basis(qm)
        for k, removed in enumerate(basis):
            rest = [p for p in basis if p != removed]
            got = generate(qm, rest).members
            want = 0
            for p in range(qm.size):
                if qm.coords(p)[k] == qm.lattice.bottom:
                    want |= 1 << p
            assert got == want


def test_find_bases_ex1(ex1_qm):
    qm = ex1_qm
    full = SubQM(qm, qm.full_mask)
    found = find_bases(full, max_size=3)
    as_sets = {frozenset(combo) for combo, _ in found}
    b1 = frozenset([qm.vector("0", "a"), qm.vector("1", "0")])
    b2 = frozenset([qm.vector("0", "a"), qm.vector("b", "0"), qm.vector("c", "0")])
    assert b1 in as_sets and b2 in as_sets
    orth = {frozenset(c): o for c, o in found}
    assert orth[b1] and orth[b2]
    for combo, _ in found:
        assert is_basis(full, combo)
        for p in combo:
            assert not is_generating(full, [q for q in combo if q != p])
    sizes = [len(c) for c, _ in found]
    assert sizes == sorted(sizes)


def test_find_bases_trivial_and_single_factor(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert find_bases(SubQM(qm, qm.full_mask), 2) == [((), True)]
    single = canonical(n5, (principal_ideal(n5, n5.top),))
    found = find_bases(SubQM(single, single.full_mask), 1)
    assert [single.vector_labels(p) for combo, _ in found for p in combo] == [("1",)]


def test_find_bases_budget(ex1_qm):
    with pytest.raises(EnumerationBudgetExceeded):
        find_bases(SubQM(ex1_qm, ex1_qm.full_mask), 3, max_candidates=2)


def test_find_bases_of_proper_subquasimodule(ex1_qm):
    qm = ex1_qm
    p17 = generate(qm, [qm.vector("0", "a"), qm.vector("c", "0")])
    found = find_bases(p17, max_size=2)
    assert found
    for combo, _ in found:
        assert is_basis(p17, combo)
        assert all(p in p17 for p in combo)


def test_all_subquasimodules_budget(ex1_qm):
    with pytest.raises(EnumerationBudgetExceeded):
        all_subquasimodules(ex1_qm, max_nodes=5)
    # the budget raises exactly when the lattice (21 nodes) outgrows it
    assert len(all_subquasimodules(ex1_qm, max_nodes=21)) == 21
    with pytest.raises(EnumerationBudgetExceeded):
        all_subquasimodules(ex1_qm, max_nodes=20)


@pytest.mark.parametrize("lattice_name, factor_gens", [
    ("n5", ["*", "a"]),        # ex1
    ("chain_4", ["*", "*"]),   # chain_4 squared, 16 vectors
    ("m3", ["*", "a"]),
    ("n5", ["*", "c"]),        # meet does not distribute over join in N5
])
def test_all_subquasimodules_vs_brute_force(lattice_name, factor_gens):
    qm = qm_from(lattice_name, factor_gens)
    assert qm.size <= 16
    nodes = all_subquasimodules(qm).nodes
    assert len(set(nodes)) == len(nodes)
    assert list(nodes) == sorted(nodes, key=bit_key)
    brute = {m for m in range(1 << qm.size) if is_subquasimodule(qm, m)[0]}
    assert set(nodes) == brute


def test_all_subquasimodules_chain3_cubed():
    qm = qm_from("chain_3", ["*", "*", "*"])
    nodes = all_subquasimodules(qm).nodes
    assert len(nodes) == 29_881
    for mask in nodes[::97]:
        assert close_mask(qm, mask) == mask


@pytest.mark.parametrize("lattice_name, factor_gens", [
    ("n5", ["*", "a"]),        # ex1
    ("chain_4", ["*", "*"]),
    ("n5", ["*", "*"]),
    ("m3", ["*", "a"]),        # not 0-distributive: no closed lattice
])
def test_subqm_covers_match_definition(lattice_name, factor_gens):
    # j covers i iff node i is strictly inside node j with no node between
    def definition(lat):
        n = len(lat)
        return [(i, j) for i in range(n) for j in range(n)
                if i != j and lat.leq(i, j)
                and not any(k not in (i, j) and lat.leq(i, k) and lat.leq(k, j)
                            for k in range(n))]

    qm = qm_from(lattice_name, factor_gens)
    lattices = [all_subquasimodules(qm)]
    if lattice_name != "m3":
        lattices.append(closed_subquasimodules(qm).base)
    for lat in lattices:
        assert lat.covers() == definition(lat)


def test_close_mask_base_matches_full_closure(ex1_qm):
    qm = ex1_qm
    for base in all_subquasimodules(qm).nodes:
        for p in range(qm.size):
            assert close_mask(qm, 1 << p, base=base) == close_mask(qm, base | 1 << p)


def test_subqm_lattice_missing_top_raises(ex1_qm):
    nodes = [m for m in all_subquasimodules(ex1_qm).nodes if m != ex1_qm.full_mask]
    for node_masks in (nodes, []):
        with pytest.raises(LatticeBoundsMissing):
            SubQMLattice(ex1_qm, node_masks, join_closure=lambda m: close_mask(ex1_qm, m))


def test_standard_basis_check_failure_raises(ex1_qm, monkeypatch):
    monkeypatch.setattr(subquasi, "is_basis", lambda sub, vectors: False)
    with pytest.raises(BasisCheckFailed):
        standard_basis(ex1_qm)
    assert len(standard_basis(ex1_qm, check=False)) == 2


def test_find_bases_check_failure_raises(ex1_qm, monkeypatch):
    monkeypatch.setattr(subquasi, "is_basis", lambda sub, vectors: False)
    with pytest.raises(BasisCheckFailed):
        find_bases(SubQM(ex1_qm, ex1_qm.full_mask), max_size=2)


def test_meet_outside_node_set_raises(ex1_qm, monkeypatch):
    subs = all_subquasimodules(ex1_qm)
    i, j = next((i, j) for i, j in combinations(range(len(subs)), 2)
                if subs.meet(i, j) not in (i, j))
    monkeypatch.delitem(subs.index, subs.nodes[subs.meet(i, j)])
    with pytest.raises(NodeSetEscaped):
        subs.meet(i, j)


def test_join_outside_node_set_raises(ex1_qm, monkeypatch):
    subs = all_subquasimodules(ex1_qm)
    i, j = next((i, j) for i, j in combinations(range(len(subs)), 2)
                if subs.nodes[i] | subs.nodes[j] not in subs.index)
    monkeypatch.delitem(subs.index, subs.nodes[subs.join(i, j)])
    with pytest.raises(NodeSetEscaped):
        subs.join(i, j)


def test_published_numbering_fixture(ex1_qm):
    subs = all_subquasimodules(ex1_qm)
    computed = {frozenset(labels_of(ex1_qm, m)): i + 1
                for i, m in enumerate(subs.nodes)}
    for published_k, vs in enumerate(golden.PUBLISHED_EX1_SUBS, start=1):
        assert computed[frozenset(vs)] == golden.PUBLISHED_TO_COMPUTED_P[published_k]
    assert computed[frozenset(golden.EX1_MISSING_SUB)] == 13


# -- is_subquasimodule against the ordered pair scan ------------------------------

def ordered_scan(qm, mask):
    """is_subquasimodule one pair at a time: zero, (p, q >= p), then (c, p)."""
    if not mask >> qm.zero & 1:
        return False, ("zero",)
    members = list(iter_bits(mask))
    for i, p in enumerate(members):
        for q in members[i:]:
            s = qm.add(p, q)
            if not mask >> s & 1:
                return False, ("add", p, q, s)
    for c in range(qm.lattice.n):
        for p in members:
            s = qm.smul(c, p)
            if not mask >> s & 1:
                return False, ("smul", c, p, s)
    return True, None


@st.composite
def qm_and_mask(draw):
    """A random sparse mask, or a generated subquasimodule with one vector
    dropped or added, so that every witness kind turns up."""
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    kind = draw(st.sampled_from(("random", "closed", "dropped", "added")))
    if kind == "random":
        return qm, sparse_mask(draw, qm)
    seeds = draw(st.lists(st.integers(0, qm.size - 1), max_size=3))
    mask = close_mask(qm, sum({1 << p for p in seeds}))
    if kind == "dropped":
        mask &= ~(1 << draw(st.sampled_from(list(iter_bits(mask)))))
    elif kind == "added":
        mask |= 1 << draw(st.integers(0, qm.size - 1))
    return qm, mask


@given(qm_and_mask())
@settings(max_examples=80, deadline=None)
def test_is_subquasimodule_matches_ordered_scan(case):
    qm, mask = case
    assert is_subquasimodule(qm, mask) == ordered_scan(qm, mask)


# -- close_mask against the per-element worklist ----------------------------------

def worklist_closure(qm, mask, base=0):
    """close_mask one vector at a time: each popped vector is added to every
    processed one and multiplied by every scalar."""
    closed = base | mask | 1 << qm.zero
    queue = list(iter_bits(closed & ~base))
    processed = list(iter_bits(base))
    while queue:
        p = queue.pop()
        for s in [qm.add(p, q) for q in processed] + [
                qm.smul(c, p) for c in range(qm.lattice.n)]:
            if not closed >> s & 1:
                closed |= 1 << s
                queue.append(s)
        processed.append(p)
    return closed


@st.composite
def qm_mask_base(draw):
    """A sparse mask and a base that is empty or the closure of another one."""
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    mask = sparse_mask(draw, qm)
    base = draw(st.sampled_from((0, None)))
    if base is None:
        base = worklist_closure(qm, sparse_mask(draw, qm))
    return qm, mask, base


@given(qm_mask_base())
@settings(max_examples=80, deadline=None)
def test_close_mask_matches_worklist(case):
    qm, mask, base = case
    assert close_mask(qm, mask, base=base) == worklist_closure(qm, mask, base)
