import hashlib
import os
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
from quasimodules.bitset import bit_key, iter_bits, mask_of
from quasimodules import galois, read_qm_file, subquasi
from quasimodules.errors import (
    BasisCheckFailed,
    EnumerationBudgetExceeded,
    LatticeBoundsMissing,
    NodeSetEscaped,
)
from quasimodules.quasimodule import CanonicalQM
from quasimodules.subquasi import close_mask

import golden
from conftest import KERNEL_INSTANCES, SPECS, qm_from, sparse_mask


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


# -- Fast Close-by-One against Close-by-One --------------------------------

def cbo_nodes(qm):
    """The former Close-by-One loop, kept as the oracle: every canonical
    extension is tried with a closure call, with no inherited failures."""
    bottom = subquasi.close_mask(qm, 0)
    nodes = [bottom]
    stack = [(bottom, 0)]
    while stack:
        b, y = stack.pop()
        for p in range(y, qm.size):
            if b >> p & 1:
                continue
            c = subquasi.close_mask(qm, 1 << p, base=b)
            if (c ^ b) & ((1 << p) - 1):
                continue
            nodes.append(c)
            stack.append((c, p + 1))
    return tuple(sorted(nodes, key=bit_key))


def copying_fcbo_nodes(qm):
    """The former FCbO loop, kept as the oracle: every node copies its
    parent's failure list before its first attempt."""
    bottom = subquasi.close_mask(qm, 0)
    nodes = [bottom]
    stack = [(bottom, 0, [0] * qm.size)]
    while stack:
        b, y, inherited = stack.pop()
        failed = list(inherited)
        for p in range(y, qm.size):
            below = (1 << p) - 1
            if b >> p & 1 or failed[p] & below & ~b:
                continue
            c = subquasi.close_mask(qm, 1 << p, base=b)
            if (c ^ b) & below:
                failed[p] = c
                continue
            nodes.append(c)
            stack.append((c, p + 1, failed))
    return tuple(sorted(nodes, key=bit_key))


# ex1, N5 and the three subs-ladder instances of the benchmark
FCBO_INSTANCES = {"ex1": ("n5", ["*", "a"]), "n5": ("n5", ["*"]),
                  "chain5.sq": ("chain_5", ["*", "*"]),
                  "chain6.top-x-4": ("chain_6", ["*", "4"]),
                  "bool3.sq": ("boolean_3", ["*", "*"])}


@pytest.mark.parametrize("name", list(FCBO_INSTANCES))
def test_fcbo_matches_cbo_with_fewer_closures(name, monkeypatch):
    qm = qm_from(*FCBO_INSTANCES[name])
    calls = []
    real = subquasi.close_mask
    monkeypatch.setattr(subquasi, "close_mask",
                        lambda *args, **kw: calls.append(None) or real(*args, **kw))
    nodes = all_subquasimodules(qm).nodes
    fcbo_calls = len(calls)
    calls.clear()
    # copying on a node's first failure makes the same closure calls; the
    # children pushed before that failure must still see it
    assert nodes == copying_fcbo_nodes(qm)
    assert len(calls) == fcbo_calls
    calls.clear()
    assert nodes == cbo_nodes(qm)
    cbo_calls = len(calls)
    assert fcbo_calls <= cbo_calls
    if name == "bool3.sq":
        # 397 against 9 795: inherited failures skip most closure calls
        assert fcbo_calls < cbo_calls


def test_all_subquasimodules_budget_boundary_on_chain5_squared():
    qm = qm_from("chain_5", ["*", "*"])
    with pytest.raises(EnumerationBudgetExceeded):
        all_subquasimodules(qm, max_nodes=3059)
    assert len(all_subquasimodules(qm, max_nodes=3060)) == 3060


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
        lattices.append(closed_subquasimodules(qm))
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


def element_ideal(lattice, em):
    """The least down-closed, join-closed element set holding em."""
    while True:
        grown = em
        for a in iter_bits(em):
            grown |= lattice.down[a]
            for b in iter_bits(em):
                grown |= 1 << lattice.join[a][b]
        if grown == em:
            return em
        em = grown


def product_of(qm, parts):
    """The carrier mask of the vectors whose i-th coordinate is in parts[i]."""
    return mask_of(p for p, u in enumerate(qm.carrier)
                   if all(parts[i] >> a & 1 for i, a in enumerate(u)))


@st.composite
def qm_and_mask(draw):
    """A random sparse mask, a generated subquasimodule with one vector
    dropped or added, or a product of per-factor element sets that hold
    bottom, some of them closed to ideals, so that every witness kind and
    both sides of the per-factor decision turn up."""
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    kind = draw(st.sampled_from(("random", "closed", "dropped", "added", "product")))
    if kind == "random":
        return qm, sparse_mask(draw, qm)
    if kind == "product":
        parts = []
        for f in qm.factors:
            em = 1 << qm.lattice.bottom | draw(st.integers(0, f.members)) & f.members
            if draw(st.booleans()):
                em = element_ideal(qm.lattice, em)
            parts.append(em)
        return qm, product_of(qm, parts)
    seeds = draw(st.lists(st.integers(0, qm.size - 1), max_size=3))
    mask = close_mask(qm, sum({1 << p for p in seeds}))
    if kind == "dropped":
        mask &= ~(1 << draw(st.sampled_from(list(iter_bits(mask)))))
    elif kind == "added":
        mask |= 1 << draw(st.integers(0, qm.size - 1))
    return qm, mask


@given(qm_and_mask())
@settings(max_examples=120, deadline=None)
def test_is_subquasimodule_matches_ordered_scan(case):
    qm, mask = case
    assert is_subquasimodule(qm, mask) == ordered_scan(qm, mask)


@pytest.mark.parametrize("qm", KERNEL_INSTANCES[:2], ids=("ex1", "m3-x-a"))
def test_is_subquasimodule_matches_ordered_scan_on_every_mask(qm):
    assert qm.size <= 12
    product_outcomes = set()
    for mask in range(1 << qm.size):
        got = is_subquasimodule(qm, mask)
        assert got == ordered_scan(qm, mask), mask
        parts = [qm.project(mask, i) for i in range(len(qm.factors))]
        if mask >> qm.zero & 1 and product_of(qm, parts) == mask:
            product_outcomes.add(got[0])
    # products that hold and products that fall through to the scan
    assert product_outcomes == {True, False}


def test_closed_lattice_decides_axis_companions_on_the_factors(monkeypatch):
    """A product's closed lattice checks only its factors' axis companions,
    each a product, so closed_subquasimodules never falls back to the
    subset-image scan. The three factors of bool3.cube are one ideal, so
    they share one factor quasimodule and its 8 axis companions are checked
    once."""
    qm = read_qm_file(os.path.join(SPECS, "bool3.cube.qm"))
    calls = {"is_subquasimodule": 0, "image": 0}
    inside = []
    image = CanonicalQM.image

    def counting_image(self, mask, p):
        calls["image"] += bool(inside)
        return image(self, mask, p)

    def counting_is_subquasimodule(qm, vectors):
        calls["is_subquasimodule"] += 1
        inside.append(True)
        try:
            return is_subquasimodule(qm, vectors)
        finally:
            inside.pop()

    monkeypatch.setattr(CanonicalQM, "image", counting_image)
    monkeypatch.setattr(galois, "is_subquasimodule", counting_is_subquasimodule)
    assert len(closed_subquasimodules(qm)) == 512
    fqm = qm.factor_qm(0)
    assert qm.factor_qm(1) is fqm and qm.factor_qm(2) is fqm
    assert len(galois._axis_companions(fqm)) == 8
    assert calls == {"is_subquasimodule": 8, "image": 0}


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


# -- close_mask by generators against the per-new-vector closure ------------------

def per_vector_closure(qm, mask, base=0):
    """The former close_mask, kept as the oracle: each round adds, for each
    fresh vector p, its scalar orbit and the image of the whole closed set
    under q -> p + q; what is new becomes the next fresh set."""
    closed = base | mask | 1 << qm.zero
    fresh = closed & ~base
    orbits = qm.scalar_orbits()
    while fresh:
        new = 0
        for p in iter_bits(fresh):
            new |= orbits[p] | qm.image(closed, p)
        fresh = new & ~closed
        closed |= fresh
    return closed


@pytest.mark.parametrize("qm", KERNEL_INSTANCES[:2], ids=("ex1", "m3-x-a"))
def test_close_mask_matches_per_vector_closure_on_every_mask(qm):
    # base 0, then every subquasimodule as base; M3 x [0,a] is not
    # 0-distributive and N5 (ex1) does not distribute meet over join
    bases = (0, *all_subquasimodules(qm).nodes)
    for base in bases:
        for mask in range(1 << qm.size):
            assert close_mask(qm, mask, base=base) == per_vector_closure(qm, mask, base), \
                (base, mask)


def count_images(monkeypatch, fn):
    """(result of fn(), number of CanonicalQM.image calls it made)."""
    calls = []
    image = CanonicalQM.image
    monkeypatch.setattr(CanonicalQM, "image",
                        lambda self, mask, p: calls.append(p) or image(self, mask, p))
    result = fn()
    monkeypatch.setattr(CanonicalQM, "image", image)
    return result, len(calls)


@pytest.mark.parametrize("name", ["chain5.sq", "chain6.top-x-4", "bool3.sq"])
def test_enumeration_takes_fewer_images_by_generators(name, monkeypatch):
    qm = qm_from(*FCBO_INSTANCES[name])
    nodes, images = count_images(monkeypatch, lambda: all_subquasimodules(qm).nodes)
    monkeypatch.setattr(subquasi, "close_mask", per_vector_closure)
    old_nodes, old_images = count_images(monkeypatch, lambda: all_subquasimodules(qm).nodes)
    assert nodes == old_nodes
    # 3 126 against 5 464, 7 716 against 13 619 and 531 against 2 378
    assert images < old_images


# -- the envelope: lattices too large for brute force --------------------------

def nodes_sha256(masks):
    return hashlib.sha256(",".join(map(str, sorted(masks))).encode()).hexdigest()


@pytest.mark.parametrize("lattice_name, factor_gens, count, digest", [
    # chain_6 x chain_7, 42 vectors
    ("chain_7", ["5", "6"], 76_948,
     "c623f9a16e343e2520eb30c4d2a17c44b562899c246dc1c2a6cc346511ecfe2a"),
    # N5^3, 125 vectors
    ("n5", ["*"] * 3, 65_093,
     "dbd570813f71ad26f6612792d4287b8a8c5926f7858196aa87d05d05ad31c91d"),
], ids=("chain6-x-chain7", "n5-cubed"))
def test_envelope_lattices_are_pinned(lattice_name, factor_gens, count, digest):
    # count and digest of the sorted node masks, taken from the
    # per-new-vector closure and the range scan of the candidate positions
    nodes = all_subquasimodules(qm_from(lattice_name, factor_gens)).nodes
    assert len(nodes) == count
    assert nodes_sha256(nodes) == digest
