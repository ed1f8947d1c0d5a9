import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import quasimodules
from quasimodules import (
    SubQM,
    TaggedSet,
    all_subquasimodules,
    canonical,
    closed_join,
    closed_lattice_iso,
    closed_subquasimodules,
    double_perp,
    generate,
    is_closed,
    is_splitting,
    perp,
    principal_ideal,
    read_qm_file,
    splitting_subquasimodules,
    sum_set,
)
from quasimodules import galois
from quasimodules.bitset import iter_bits, mask_of, sort_masks, superset_masks
from quasimodules.errors import (
    CompanionNotClosed,
    CompanionOverlap,
    Error,
    FactorizationFailed,
    IndexOutOfRange,
    NotClosed,
    NotInCarrier,
    NotZeroDistributive,
    SplittingNotClosed,
)
from quasimodules.galois import (
    ClosedLattice,
    closed_sets,
    factor_zero_distributivity,
    principal_perp,
    product_mask,
    with_companions,
)
from quasimodules.subquasi import SubQMLattice
from quasimodules.verify import SearchConfig
from quasimodules.verify.search import _exhaustive_lattices, _factor_variants

import golden
from conftest import (
    KERNEL_IDS,
    KERNEL_INSTANCES,
    SPECS,
    SUBSET_INSTANCES,
    factorize_closed,
    poisoned,
    qm_from,
    sparse_mask,
)


def vecmask(qm, label_tuples):
    return mask_of(qm.vector(*v) for v in label_tuples)


def test_element_companions_single_factor(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.top),))
    for label, want in golden.N5_ELEMENT_PERPS.items():
        got = perp(qm, [qm.vector(label)])
        assert got == mask_of(qm.vector(e) for e in want)
    assert perp(qm, [qm.zero]) == qm.full_mask
    assert perp(qm, qm.full_mask) == 1 << qm.zero
    assert perp(qm, 0) == qm.full_mask


def test_double_perp_on_published_sets(ex1_qm):
    qm = ex1_qm
    p3 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[2])
    p8 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[7])
    got = double_perp(qm, p3)
    assert isinstance(got, SubQM) and got.members == p8
    p16 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[15])
    p20 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[19])
    assert double_perp(qm, p16).members == p20
    assert double_perp(qm, 1 << qm.zero).members == 1 << qm.zero


def test_published_companion_table_row_for_row(ex1_qm):
    qm = ex1_qm
    masks = [vecmask(qm, vs) for vs in golden.PUBLISHED_EX1_SUBS]
    for k, mask in enumerate(masks):
        companion = perp(qm, mask)
        assert companion == masks[golden.PUBLISHED_EX1_PERP[k] - 1]
        assert perp(qm, companion) == masks[golden.PUBLISHED_EX1_PERP_PERP[k] - 1]


def test_double_perp_tagged_when_not_zero_distributive(m3_qm):
    qm = m3_qm
    raw = vecmask(qm, (("0", "0"), ("b", "0"), ("c", "0")))
    got = double_perp(qm, raw)
    assert isinstance(got, TaggedSet)
    assert got.members == raw  # the set is closed, yet not a subquasimodule
    assert got.violation == ("add", qm.vector("b", "0"), qm.vector("c", "0"),
                             qm.vector("1", "0"))


def test_is_closed(ex1_qm):
    qm = ex1_qm
    assert is_closed(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[16]))  # P17
    assert not is_closed(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[2]))  # P3
    assert is_closed(qm, 1 << qm.zero)


def test_closed_lattice_single_factor(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.top),))
    closed = closed_subquasimodules(qm)
    want = {mask_of(qm.vector(e) for e in labels) for labels in golden.N5_CLOSED}
    assert set(closed.nodes) == want
    assert len(closed) == 4
    # involution is antitone and self-inverse
    for i in range(len(closed)):
        j = closed.perp_map[i]
        assert closed.perp_map[j] == i


def test_closed_lattice_ex1(ex1_qm):
    closed = closed_subquasimodules(ex1_qm)
    want = {vecmask(ex1_qm, golden.PUBLISHED_EX1_SUBS[k - 1])
            for k in golden.PUBLISHED_EX1_CLOSED}
    assert set(closed.nodes) == want


def test_closed_refuses_non_zero_distributive(m3_qm):
    with pytest.raises(NotZeroDistributive) as err:
        closed_subquasimodules(m3_qm)
    assert err.value.factor == 0


def test_factor_zero_distributivity_matches_triple_scan(ex1_qm, m3_qm, fig5_qm):
    def triple_scan(lattice, members):
        # the triple loop over factor members, ascending
        meet, join, b = lattice.meet, lattice.join, lattice.bottom
        els = list(iter_bits(members))
        for x in els:
            for y in els:
                for z in els:
                    if meet[x][z] == b and meet[y][z] == b and meet[join[x][y]][z] != b:
                        return False, (x, y, z)
        return True, None

    verdicts = []
    for qm in (ex1_qm, m3_qm, fig5_qm):
        got = factor_zero_distributivity(qm)
        assert got == [(i, *triple_scan(qm.lattice, f.members))
                       for i, f in enumerate(qm.factors)]
        verdicts += [ok for _, ok, _ in got]
    assert False in verdicts and True in verdicts


def test_closed_equals_filter_oracle(ex1_qm):
    subs = all_subquasimodules(ex1_qm)
    filtered = {m for m in subs.nodes if is_closed(ex1_qm, m)}
    assert filtered == set(closed_subquasimodules(ex1_qm).nodes)


def test_closed_join(ex1_qm):
    qm = ex1_qm
    closed = closed_subquasimodules(qm)
    p2 = SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[1]))
    p5 = SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[4]))
    p8 = SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[7]))

    def oracle(a, b):
        # least closed superset of both, by scanning the enumerated lattice
        candidates = [n for n in closed.nodes if (a.members | b.members) & ~n == 0]
        least = min(candidates, key=lambda n: n.bit_count())
        assert all(least & ~n == 0 for n in candidates)
        return least

    got = closed_join(qm, p2, p5)
    assert got.members == vecmask(qm, golden.PUBLISHED_EX1_SUBS[11])  # P12
    assert got.members == oracle(p2, p5)
    got = closed_join(qm, p2, p8)
    assert got.members == vecmask(qm, golden.PUBLISHED_EX1_SUBS[16])  # P17
    assert got.members == oracle(p2, p8)
    bottom = SubQM(qm, 1 << qm.zero)
    assert closed_join(qm, p8, bottom).members == p8.members
    with pytest.raises(NotClosed):
        closed_join(qm, SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[2])), p2)


def test_sum_set(ex1_qm, fig5_qm):
    qm = ex1_qm
    p2 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[1])
    p15 = vecmask(qm, golden.PUBLISHED_EX1_SUBS[14])
    assert sum_set(qm, p2, p15) == qm.full_mask
    assert sum_set(qm, p15, 1 << qm.zero) == p15

    fq = fig5_qm
    lat = fq.lattice
    p = product_mask(fq, (lat.down[lat.index("b")], lat.down[lat.index("c")]))
    companion = perp(fq, p)
    want = product_mask(fq, (lat.down[lat.index("c")], lat.down[lat.index("b")]))
    assert companion == want
    sums = sum_set(fq, p, companion)
    assert not sums >> fq.vector("1", "1") & 1


def test_splitting(ex1_qm, fig5_qm):
    qm = ex1_qm
    closed = closed_subquasimodules(qm)
    for mask in closed.nodes:
        assert is_splitting(qm, SubQM(qm, mask))
    assert is_splitting(qm, SubQM(qm, qm.full_mask))

    fq = fig5_qm
    lat = fq.lattice
    p = product_mask(fq, (lat.down[lat.index("b")], lat.down[lat.index("c")]))
    assert is_closed(fq, p)
    assert not is_splitting(fq, SubQM(fq, p))


def test_splitting_family(ex1_qm, n5):
    splits = splitting_subquasimodules(ex1_qm)
    closed = closed_subquasimodules(ex1_qm)
    assert {s.members for s in splits} == set(closed.nodes)
    trivial = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert [s.members for s in splitting_subquasimodules(trivial)] == [1]


def test_splitting_excluded_for_fig5(fig5_qm):
    lat = fig5_qm.lattice
    p = product_mask(fig5_qm, (lat.down[lat.index("b")], lat.down[lat.index("c")]))
    splits = {s.members for s in splitting_subquasimodules(fig5_qm)}
    assert p not in splits
    assert all(is_closed(fig5_qm, m) for m in splits)


def old_splitting_subquasimodules(qm):
    """The former splitting_subquasimodules, kept as the oracle: every node
    of the enumerated subquasimodule lattice that splits."""
    subs = all_subquasimodules(qm)
    return [m for m in subs.nodes if is_splitting(qm, SubQM(qm, m))]


def test_splitting_family_matches_enumerate_and_filter():
    # the specs within the node budget, then every lattice up to 6 elements
    # with each factor tuple the search tries, 0-distributive or not
    cases = []
    for spec in sorted(os.listdir(SPECS)):
        if spec not in ("bool3.cube.qm", "n5.pow4.qm"):
            cases.append((spec, read_qm_file(os.path.join(SPECS, spec))))
    cfg = SearchConfig(max_lattice_size=6)
    cases += [(f"{lat.up} {factors}", canonical(lat, factors)) for n in range(1, 7)
              for lat in _exhaustive_lattices(n) for factors in _factor_variants(lat, cfg)]
    assert len(cases) == 7 + 334
    for label, qm in cases:
        got = [s.members for s in splitting_subquasimodules(qm)]
        assert got == old_splitting_subquasimodules(qm), label


@pytest.mark.parametrize("spec, count", [("bool3.cube.qm", 8 ** 3), ("n5.pow4.qm", 4 ** 4)])
def test_splitting_family_past_the_node_budget(spec, count):
    # both have more subquasimodules than the default node budget; th3 and
    # prop-splitting-product predict the products of the factors' splitting
    # counts, 8 on bool3 and 4 on N5
    qm = read_qm_file(os.path.join(SPECS, spec))
    assert len(splitting_subquasimodules(qm)) == count


def test_factorize_closed(ex1_qm, n5):
    qm = ex1_qm
    p12 = SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[11]))
    witness = factorize_closed(qm, p12)
    assert witness.factor_labels() == (("0", "b"), ("0", "a"))
    p17 = SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[16]))
    assert factorize_closed(qm, p17).factor_labels() == (("0", "a", "c"), ("0", "a"))
    bottom = SubQM(qm, 1 << qm.zero)
    assert factorize_closed(qm, bottom).factor_labels() == (("0",), ("0",))
    with pytest.raises(NotClosed):
        factorize_closed(qm, SubQM(qm, vecmask(qm, golden.PUBLISHED_EX1_SUBS[2])))


def test_closed_lattice_iso(ex1_qm, n5):
    iso = closed_lattice_iso(ex1_qm)
    assert iso.is_isomorphism
    assert len(iso.assignments) == 8  # 4 x 2
    two = qm_from("n5", ["*", "*"])
    iso2 = closed_lattice_iso(two)
    assert iso2.is_isomorphism and len(iso2.assignments) == 16
    single = canonical(n5, (principal_ideal(n5, n5.top),))
    iso1 = closed_lattice_iso(single)
    assert iso1.is_isomorphism and len(iso1.assignments) == 4


def test_closed_sets_unconditional(m3_qm):
    # the set-level closure family exists even without 0-distributivity
    sets = closed_sets(m3_qm)
    assert 1 << m3_qm.zero in sets and m3_qm.full_mask in sets
    for mask in sets:
        assert perp(m3_qm, perp(m3_qm, mask)) == mask


def test_closed_join_degrades_to_tagged_set_without_zero_distributivity(m3):
    qm = canonical(m3, (principal_ideal(m3, m3.top),))
    from quasimodules import is_closed as _is_closed

    a = SubQM(qm, 1 << qm.vector("0") | 1 << qm.vector("a"))
    b = SubQM(qm, 1 << qm.vector("0") | 1 << qm.vector("b"))
    assert _is_closed(qm, a.members) and _is_closed(qm, b.members)
    joined = closed_join(qm, a, b)
    assert isinstance(joined, TaggedSet)
    assert joined.violation[0] == "add"


def test_closed_sets_equal_fixed_point_filter(ex1_qm, m3_qm):
    # brute force: the double-companion fixed points over all carrier subsets
    for qm in (ex1_qm, m3_qm, qm_from("chain_4", ["*", "*"])):
        brute = {m for m in range(1 << qm.size)
                 if perp(qm, perp(qm, m)) == m}
        assert closed_sets(qm) == brute


@pytest.mark.parametrize("spec", sorted(os.listdir(SPECS)))
def test_closed_sets_match_saturation(spec):
    # oracle: saturate the principal companions under pairwise intersection,
    # round by round, until no new set appears
    qm = read_qm_file(os.path.join(SPECS, spec))
    base = {qm.full_mask} | {principal_perp(qm, p) for p in range(qm.size)}
    nodes = set(base)
    frontier = sorted(base)
    while frontier:
        fresh = []
        snapshot = sorted(nodes)
        for a in frontier:
            for b in snapshot:
                c = a & b
                if c not in nodes:
                    nodes.add(c)
                    fresh.append(c)
        frontier = sorted(fresh)
    assert closed_sets(qm) == nodes


@pytest.mark.parametrize("spec, which", [
    ("bool3.cube", "closed"), ("bool3.sq-x-ab", "closed"), ("n5.pow4", "closed"),
    ("chain5.sq", "all"), ("chain6.top-x-4", "all"), ("bool3.sq", "all"),
])
def test_is_splitting_reads_the_closed_companion(spec, which, monkeypatch):
    # the closed nodes of the closed-products specs, every node of the
    # subs-ladder ones; `fresh` has no closed lattice, so it calls perp
    path = os.path.join(SPECS, spec + ".qm")
    qm, fresh = read_qm_file(path), read_qm_file(path)
    closed = closed_subquasimodules(qm)
    masks = closed.nodes if which == "closed" else all_subquasimodules(qm).nodes
    want = [is_splitting(fresh, SubQM(fresh, m)) for m in masks]
    assert fresh._closed is None
    asked = []
    monkeypatch.setattr(galois, "perp",
                        lambda qm_, v: asked.append(v) or perp(qm_, v))
    assert [is_splitting(qm, SubQM(qm, m)) for m in masks] == want
    assert not set(asked) & set(closed.nodes)


def singleton_closure(qm):
    # oracle: the intersection closure of all |Q| singleton companions
    nodes = {qm.full_mask}
    for g in {principal_perp(qm, p) for p in range(qm.size)}:
        nodes |= {n & g for n in nodes}
    return nodes


def test_closed_sets_match_singleton_closure_on_small_lattices():
    # every lattice up to 5 elements, each factor tuple the search tries,
    # 0-distributive or not (M3 and N5 among them)
    cfg = SearchConfig(max_lattice_size=5)
    cases = 0
    for n in range(1, 6):
        for lat in _exhaustive_lattices(n):
            for factors in _factor_variants(lat, cfg):
                qm = canonical(lat, factors)
                assert closed_sets(qm) == singleton_closure(qm), (lat.up, factors)
                cases += 1
    assert cases == 61


def test_poisoned_axis_companion_fails_the_self_check(ex1_qm):
    p = ex1_qm.vector("a", "0")
    # the companion of (a,0) without the zero vector is no subquasimodule
    qm = with_companions(ex1_qm, {p: principal_perp(ex1_qm, p) ^ 1 << ex1_qm.zero})
    with pytest.raises(FactorizationFailed) as err:
        closed_subquasimodules(qm)
    assert "axis vector ('a', '0')" in str(err.value)
    assert qm._closed is None


def test_closed_lattice_is_built_once(ex1_qm, monkeypatch):
    qm = ex1_qm
    closed = closed_subquasimodules(qm)
    assert closed_subquasimodules(qm) is closed
    returned = []

    def spy(q):
        returned.append(build(q))
        return returned[-1]

    build = galois.closed_subquasimodules
    monkeypatch.setattr(galois, "closed_subquasimodules", spy)
    assert closed_lattice_iso(qm).is_isomorphism
    assert returned[0] is closed
    # the second product map builds no closed lattice, the factors' included;
    # it takes the closed sets of qm alone, to compare the images with
    monkeypatch.setattr(galois, "ClosedLattice", lambda *a: pytest.fail("rebuilt"))
    defined = []
    monkeypatch.setattr(galois, "closed_sets",
                        lambda q: defined.append(q) or closed_sets(q))
    first = returned[:]
    returned.clear()
    assert closed_lattice_iso(qm).is_isomorphism
    assert len(returned) == 3
    assert all(a is b for a, b in zip(returned, first))
    assert defined == [qm]


def test_not_zero_distributive_is_not_cached(m3_qm):
    for _ in range(2):
        with pytest.raises(NotZeroDistributive):
            closed_subquasimodules(m3_qm)
        assert m3_qm._closed is None


def brute_closed_count(qm):
    return sum(1 for m in range(1 << qm.size) if perp(qm, perp(qm, m)) == m)


@pytest.mark.parametrize("qm", [read_qm_file(os.path.join(SPECS, "bool3.cube.qm")),
                                read_qm_file(os.path.join(SPECS, "n5.pow4.qm")),
                                qm_from("chain_3", ["*"] * 3),
                                qm_from("chain_6", ["*"] * 2),
                                qm_from("chain_7", ["5", "6"])],
                         ids=("bool3.cube", "n5.pow4", "chain_3^3", "chain_6^2",
                              "chain_6xchain_7"))
def test_closed_count_is_the_product_of_factor_counts(qm):
    # th3 and cor1: the closed lattice is the product of the factors' closed
    # lattices, each counted over all subsets of its carrier
    want = 1
    for i in range(len(qm.factors)):
        want *= brute_closed_count(qm.factor_qm(i))
    assert len(closed_sets(qm)) == want
    assert closed_lattice_iso(qm).is_isomorphism


# -- slab-shift paths against per-element definitions ------------------------------

def join_closure(qm, mask):
    """The sums of zero and any members of mask: the least set holding zero
    and mask that is closed under +."""
    out = 1 << qm.zero
    for p in iter_bits(mask):
        out |= qm.image(out, p)
    return out


@st.composite
def qm_and_two_masks(draw):
    """Two sparse masks; either may be {zero}, the identity of addition, or
    closed under +, so that both paths of sum_set are drawn."""
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    a, b = sparse_mask(draw, qm), sparse_mask(draw, qm)
    zero_side = draw(st.sampled_from((None, 0, 1)))
    if zero_side == 0:
        a = 1 << qm.zero
    elif zero_side == 1:
        b = 1 << qm.zero
    closed_side = draw(st.sampled_from((None, 0, 1)))
    generators = draw(st.lists(st.integers(0, qm.size - 1), min_size=1, max_size=3))
    if closed_side == 0:
        a = join_closure(qm, mask_of(generators))
    elif closed_side == 1:
        b = join_closure(qm, mask_of(generators))
    return qm, a, b


def test_sum_set_matches_pairwise():
    # the smaller side is closed under + (generator fold) or not (member loop)
    paths = set()

    @given(qm_and_two_masks())
    @settings(max_examples=60, deadline=None)
    def check(case):
        qm, a, b = case
        want = 0
        for p in iter_bits(a):
            for q in iter_bits(b):
                want |= 1 << qm.add(p, q)
        assert sum_set(qm, a, b) == want
        smaller = b if a.bit_count() > b.bit_count() else a
        paths.add("fold" if join_closure(qm, smaller) == smaller else "loop")

    check()
    assert paths == {"fold", "loop"}


@pytest.mark.parametrize("qm", KERNEL_INSTANCES, ids=KERNEL_IDS)
def test_principal_perp_matches_componentwise(qm):
    meet, b = qm.lattice.meet, qm.lattice.bottom
    for p, u in enumerate(qm.carrier):
        want = 0
        for q, v in enumerate(qm.carrier):
            if all(meet[x][y] == b for x, y in zip(u, v)):
                want |= 1 << q
        assert principal_perp(qm, p) == want


def walk_project(qm, vectors, i):
    """The former CanonicalQM.project, kept as the oracle: a walk over the
    members."""
    if not 0 <= i < len(qm.factors):
        raise IndexOutOfRange(f"factor index out of range: {i}")
    out = 0
    for p in iter_bits(qm.mask(vectors)):
        out |= 1 << qm.carrier[p][i]
    return out


def per_element_product_mask(qm, element_masks):
    """The former product_mask, kept as the oracle: one slab row lookup per
    element."""
    if len(element_masks) != len(qm.factors):
        raise ValueError("need one element mask per factor")
    out = qm.full_mask
    for i, em in enumerate(element_masks):
        layer = 0
        for e in iter_bits(em):
            layer |= dict(qm.slabs()[i]).get(e, 0)
        out &= layer
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except (IndexOutOfRange, NotInCarrier, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("spec", sorted(os.listdir(SPECS)))
def test_slab_project_and_product_match_the_walks(spec):
    qm = read_qm_file(os.path.join(SPECS, spec))
    k, n = len(qm.factors), qm.lattice.n
    for i, slabs in enumerate(qm.slabs()):
        assert [e for e, _ in slabs] == list(iter_bits(qm.factors[i].members))
        for e in range(n):
            assert dict(slabs).get(e, 0) == mask_of(
                p for p, u in enumerate(qm.carrier) if u[i] == e)
    rng = random.Random(spec)
    masks = [*closed_sets(qm), 0, *(rng.getrandbits(qm.size) & rng.getrandbits(qm.size)
                                    for _ in range(20))]
    for mask in masks:
        parts = []
        for i in (-1, *range(k), k):
            got = outcome(qm.project, mask, i)
            assert got == outcome(walk_project, qm, mask, i), (mask, i)
            if 0 <= i < k:
                parts.append(got)
        assert product_mask(qm, parts) == per_element_product_mask(qm, parts)
        stray = [rng.getrandbits(n) for _ in range(k)]
        assert product_mask(qm, stray) == per_element_product_mask(qm, stray)
    for outside in (1 << qm.size, qm.full_mask + 1, -1):
        assert outcome(qm.project, outside, 0) is NotInCarrier
        assert outcome(walk_project, qm, outside, 0) is NotInCarrier
    for wrong in ((), (1,) * (k + 1)):
        assert outcome(product_mask, qm, wrong) is ValueError
    for node in closed_sets(qm):
        assert product_mask(qm, [qm.project(node, i) for i in range(k)]) == node


def old_is_order_embedding(assignments):
    """The former order-embedding scan of closed_lattice_iso, kept as the
    oracle: True iff, for every pair of (choice, image) assignments, the
    choices are included coordinatewise exactly when the images are.

    Row a is compared as two bitsets over assignment indices: the AND over
    coordinates i of "assignments whose i-th set contains a's i-th set", and
    the AND over a's image positions of "assignments whose image holds the
    position"."""
    if not assignments:
        return True
    k = len(assignments[0][0])
    with_value = [{} for _ in range(k)]   # i -> {set: assignments choosing it}
    for b, (choice, _) in enumerate(assignments):
        for i, y in enumerate(choice):
            with_value[i][y] = with_value[i].get(y, 0) | 1 << b
    # the assignments choosing different sets are disjoint, so sum is their OR
    above = [{x: sum(bits for y, bits in by.items() if x & ~y == 0) for x in by}
             for by in with_value]
    everything = (1 << len(assignments)) - 1
    by_images = superset_masks([image for _, image in assignments])
    for (choice, _), by_image in zip(assignments, by_images):
        by_choice = everything
        for i, x in enumerate(choice):
            by_choice &= above[i][x]
        if by_choice != by_image:
            return False
    return True


def test_order_embedding_catches_broken_assignments(ex1_qm):
    # the oracle is not vacuous: swapping two images breaks it
    assignments = list(closed_lattice_iso(ex1_qm).assignments)
    assert old_is_order_embedding(assignments)
    # swap the images of the bottom and top assignments
    (c0, m0), (c1, m1) = assignments[0], assignments[-1]
    assignments[0], assignments[-1] = (c0, m1), (c1, m0)
    assert not old_is_order_embedding(assignments)
    assert old_is_order_embedding([])


ZERO_DISTRIBUTIVE = [(spec, read_qm_file(os.path.join(SPECS, spec)))
                     for spec in sorted(os.listdir(SPECS))]
ZERO_DISTRIBUTIVE += [(name, qm) for name, qm in zip(KERNEL_IDS, KERNEL_INSTANCES)
                      if galois.zero_distributivity_defect(qm) is None]


@pytest.mark.parametrize("name, qm", ZERO_DISTRIBUTIVE, ids=[n for n, _ in ZERO_DISTRIBUTIVE])
def test_product_map_is_an_order_embedding(name, qm):
    # closed_lattice_iso no longer checks order: each factor set holds the
    # zero element, and one product of non-empty sets lies in another iff
    # each component does
    iso = closed_lattice_iso(qm)
    assert iso.is_isomorphism
    assert all(1 << qm.lattice.bottom & em for f in iso.factor_closed for em in f)
    assert old_is_order_embedding(iso.assignments)


def test_product_map_is_an_order_embedding_on_small_lattices():
    # every lattice up to 6 elements, each factor tuple the search tries
    cfg = SearchConfig(max_lattice_size=6)
    cases = 0
    for n in range(1, 7):
        for lat in _exhaustive_lattices(n):
            for factors in _factor_variants(lat, cfg):
                qm = canonical(lat, factors)
                if galois.zero_distributivity_defect(qm) is None:
                    iso = closed_lattice_iso(qm)
                    assert iso.is_isomorphism, (lat.up, factors)
                    assert old_is_order_embedding(iso.assignments), (lat.up, factors)
                    cases += 1
    assert cases == 216


def test_closed_lattice_is_a_subquasimodule_lattice(ex1_qm):
    closed = closed_subquasimodules(ex1_qm)
    assert isinstance(closed, SubQMLattice) and closed.kind == "closed"
    assert not hasattr(closed, "base")
    for i, mask in enumerate(closed.nodes):
        assert closed.nodes[closed.perp_map[i]] == perp(ex1_qm, mask)
        assert closed.perp_map[closed.perp_map[i]] == i


# -- companions from smaller nodes, splitting on generators ---------------------

def old_perp_map(qm, node_masks):
    """The former ClosedLattice construction, kept as the oracle: one perp
    over the members of each node."""
    nodes = SubQMLattice(qm, node_masks, join_closure=None, kind="closed")
    out = []
    for mask in nodes.nodes:
        pm = perp(qm, mask)
        if pm not in nodes.index:
            raise CompanionNotClosed(
                f"companion of closed set {qm.label_sets(mask)} is not closed")
        out.append(nodes.index[pm])
    return tuple(out)


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except Error as exc:
        return type(exc), str(exc)


def closed_lattice_contexts():
    """The poisoned SUBSET_INSTANCES, every lattice up to 5 elements with
    each factor tuple the search tries, and the bundled specs."""
    for name, spec in SUBSET_INSTANCES.items():
        for poison, qm in poisoned(*spec):
            yield f"{name} {poison}", qm
    cfg = SearchConfig(max_lattice_size=5)
    for n in range(1, 6):
        for lat in _exhaustive_lattices(n):
            for factors in _factor_variants(lat, cfg):
                yield f"{lat.up} {factors}", canonical(lat, factors)
    for spec in sorted(os.listdir(SPECS)):
        yield spec, read_qm_file(os.path.join(SPECS, spec))


def definition_lattice(qm):
    """The oracle: every closed set in node order and one perp per node."""
    nodes = closed_sets(qm)
    return tuple(sort_masks(nodes, qm.size)), old_perp_map(qm, nodes)


def test_perp_map_matches_the_per_node_walk():
    # both paths, the product one on unseeded products and the definition on
    # one-factor and seeded contexts; NotZeroDistributive and
    # FactorizationFailed come before any map and are tested elsewhere
    outcomes, cases = set(), 0
    for label, qm in closed_lattice_contexts():
        got = result_or_error(lambda: closed_subquasimodules(qm))
        if isinstance(got, ClosedLattice):
            got = got.nodes, got.perp_map
        elif got[0] in (NotZeroDistributive, FactorizationFailed):
            continue
        assert got == result_or_error(definition_lattice, qm), label
        outcomes.add(got[0] if isinstance(got[0], type) else "map")
        cases += 1
    assert cases == 157
    assert {"map", CompanionNotClosed} <= outcomes


def product_contexts():
    """The unseeded contexts with two or more 0-distributive factors, then
    N5^3 (125 vectors) and chain_6 x chain_7 (42 vectors, factors of unequal
    size)."""
    for label, qm in closed_lattice_contexts():
        if (len(qm.factors) > 1 and not qm._seeded
                and galois.zero_distributivity_defect(qm) is None):
            yield label, qm
    yield "n5^3", qm_from("n5", ["*"] * 3)
    yield "chain_6 x chain_7", qm_from("chain_7", ["5", "6"])


def test_product_lattice_matches_the_definition():
    # th3, cor1 and lem1 build the closed lattice of a product from the
    # factors'; the definition builds it from the companions of the product
    cases = 0
    for label, qm in product_contexts():
        closed = closed_subquasimodules(qm)
        assert (closed.nodes, closed.perp_map) == definition_lattice(qm), label
        cases += 1
    assert cases == 60


@pytest.mark.parametrize("spec, planted", [("ex1", 0), ("bool3.sq-x-ab", 1),
                                           ("bool3.sq-x-ab", 2)])
def test_product_involution_reads_each_factor_involution(spec, planted):
    # every factor involution met so far reverses its node order, and then
    # numbering the choices with any factor fastest gives the same map; a
    # planted factor lattice whose involution is the identity tells them apart.
    # Equal factors share the planted lattice: on bool3.sq-x-ab (abc, abc, ab)
    # factor 1 plants on factors 0 and 1 at once, factor 2 on ab alone
    qm = read_qm_file(os.path.join(SPECS, spec + ".qm"))
    fqm = qm.factor_qm(planted)
    fqm._closed = ClosedLattice(fqm, closed_sets(fqm), lambda mask: mask)
    lattices = [closed_subquasimodules(qm.factor_qm(i)) for i in range(len(qm.factors))]
    ems = [[qm.factor_qm(i).project(m, 0) for m in fcl.nodes]
           for i, fcl in enumerate(lattices)]
    closed = closed_subquasimodules(qm)
    for choice in itertools.product(*(range(len(fcl)) for fcl in lattices)):
        image = product_mask(qm, [e[k] for e, k in zip(ems, choice)])
        partner = product_mask(qm, [e[fcl.perp_map[k]]
                                    for e, fcl, k in zip(ems, lattices, choice)])
        assert closed.perp_map[closed.index[image]] == closed.index[partner], choice


def test_a_seeded_copy_shares_nothing_with_the_original():
    # bool3.sq-x-ab: two equal factors share one factor quasimodule; the copy
    # builds its own, with its own closed lattices and caches
    qm = read_qm_file(os.path.join(SPECS, "bool3.sq-x-ab.qm"))
    closed_subquasimodules(qm)
    copy = with_companions(qm, {})
    closed_subquasimodules(copy)
    k = len(qm.factors)
    mine = {id(qm.factor_qm(i)) for i in range(k)}
    assert len(mine) == 2
    for i in range(k):
        fqm = copy.factor_qm(i)
        assert id(fqm) not in mine
        assert closed_subquasimodules(fqm) is not closed_subquasimodules(qm.factor_qm(i))
    assert copy._closed is not qm._closed
    # the carrier and its index are shared, read only; no cache is
    for name in type(qm).__slots__:
        if name.startswith("_") and isinstance(getattr(qm, name), dict):
            assert getattr(copy, name) is not getattr(qm, name), name


def test_seeded_and_one_factor_quasimodules_take_the_definition(ex1_qm, monkeypatch):
    # the product path reads the factors' lattices; these never do
    monkeypatch.setattr(galois, "_product_lattice", lambda qm: pytest.fail("product"))
    for qm in (with_companions(ex1_qm, {}), ex1_qm.factor_qm(0), qm_from("fig5", ["*"])):
        closed = closed_subquasimodules(qm)
        assert (closed.nodes, closed.perp_map) == definition_lattice(qm)


def old_is_splitting(qm, mask):
    """The oracle: the companion by perp, then the OR of the companion's
    image under every member, with no cut."""
    companion = perp(qm, mask)
    if mask & companion != 1 << qm.zero:
        raise CompanionOverlap(
            f"{SubQM(qm, mask)} meets its companion in {qm.label_sets(mask & companion)}, "
            f"not in the zero vector alone")
    out = 0
    for p in iter_bits(mask):
        out |= qm.image(companion, p)
    return out == qm.full_mask


SMALL_SPECS = [spec for spec in sorted(os.listdir(SPECS))
               if read_qm_file(os.path.join(SPECS, spec)).size <= 64]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_is_splitting_matches_the_uncut_member_sum(spec):
    # every subquasimodule, closed or not; bool3.sq has splitting nodes whose
    # sizes multiply to exactly |Q|
    qm = read_qm_file(os.path.join(SPECS, spec))
    closed_subquasimodules(qm)
    splits = 0
    for mask in all_subquasimodules(qm).nodes:
        want = result_or_error(old_is_splitting, qm, mask)
        got = result_or_error(lambda: is_splitting(qm, SubQM(qm, mask)))
        assert got == want, mask
        splits += got is True
    assert splits > 0


def test_is_splitting_matches_the_oracle_on_the_closed_nodes():
    # every closed node of every context whose closed lattice builds, the
    # poisoned ones and the three closed-products specs among them
    built, held_back, labels = 0, 0, set()
    for label, qm in closed_lattice_contexts():
        try:
            closed = closed_subquasimodules(qm)
        except Error:
            continue
        built += 1
        labels.add(label)
        got = []
        for mask in closed.nodes:
            want = result_or_error(old_is_splitting, qm, mask)
            got.append(result_or_error(lambda: is_splitting(qm, SubQM(qm, mask))))
            assert got[-1] == want, (label, mask)
        held_back += False in got
    assert built == 147
    assert {"bool3.cube.qm", "bool3.sq-x-ab.qm", "n5.pow4.qm"} <= labels
    # contexts with a closed node that does not split (6 of them unpoisoned
    # lattices up to 5 elements), so the closed path is not always True
    assert held_back == 15


def generic_join_irreducibles(qm):
    """Oracle: p != zero, and the sum of the q != p with p + q = p is not p."""
    out = 0
    for p in range(qm.size):
        below = qm.zero
        for q in range(qm.size):
            if q != p and qm.add(p, q) == p:
                below = qm.add(below, q)
        if p != qm.zero and below != p:
            out |= 1 << p
    return out


def test_join_irreducibles_match_the_definition():
    cfg = SearchConfig(max_lattice_size=5)
    contexts = [(f"{lat.up} {factors}", canonical(lat, factors))
                for n in range(1, 6) for lat in _exhaustive_lattices(n)
                for factors in _factor_variants(lat, cfg)]
    contexts += [(spec, read_qm_file(os.path.join(SPECS, spec))) for spec in SMALL_SPECS]
    assert len(contexts) == 61 + 6
    for label, qm in contexts:
        assert galois.join_irreducibles(qm) == generic_join_irreducibles(qm), label


@pytest.mark.parametrize("spec", ["bool3.cube", "bool3.sq-x-ab", "n5.pow4"])
def test_closed_lattice_reads_each_companion_about_once(spec, monkeypatch):
    qm = read_qm_file(os.path.join(SPECS, spec + ".qm"))
    calls = []
    monkeypatch.setattr(galois, "principal_perp",
                        lambda qm_, p: calls.append(p) or principal_perp(qm_, p))
    closed_subquasimodules(qm)
    assert len(calls) <= 2 * qm.size


# -- perp from the top down, and the ascending walk it keeps ---------------------

def ascending_perp(qm, mask):
    """The former perp, kept as the oracle: the meet of the stored singleton
    companions in increasing position order, stopping at {zero}."""
    out = qm.full_mask
    for p in iter_bits(mask):
        out &= principal_perp(qm, p)
        if out == 1 << qm.zero:
            break
    return out


def descending_perp(qm, mask):
    """The same meet from the highest position down, with no guard."""
    out = qm.full_mask
    for p in reversed(list(iter_bits(mask))):
        out &= principal_perp(qm, p)
        if out == 1 << qm.zero:
            break
    return out


def perp_probes(qm):
    """Every singleton and pair, the full carrier and 256 seeded subsets."""
    rng = random.Random(qm.size)
    yield qm.full_mask
    for p in range(qm.size):
        for q in range(p, qm.size):
            yield 1 << p | 1 << q
    for _ in range(256):
        yield rng.getrandbits(qm.size)


def test_perp_matches_the_ascending_walk_on_the_poisoned_contexts():
    contexts = order_matters = 0
    for name, spec in SUBSET_INSTANCES.items():
        for poison, qm in poisoned(*spec):
            for mask in perp_probes(qm):
                want = ascending_perp(qm, mask)
                assert perp(qm, mask) == want, (name, poison, mask)
                order_matters += descending_perp(qm, mask) != want
            contexts += 1
    assert contexts == 214
    # a zero-less companion makes the stopping point matter
    assert order_matters


def test_perp_walks_a_seeded_copy_in_increasing_order():
    # plain, walked over every mask first, keeps its descending walk; a copy
    # seeded with a companion without zero takes the ascending one
    plain = qm_from("n5", ["*", "a"])
    for mask in range(1 << plain.size):
        assert perp(plain, mask) == descending_perp(plain, mask)
    order_matters = 0
    for p in range(10):
        qm = with_companions(plain, {p: principal_perp(plain, p) ^ 1 << plain.zero})
        for mask in range(1 << qm.size):
            want = ascending_perp(qm, mask)
            assert perp(qm, mask) == want, (p, mask)
            order_matters += descending_perp(qm, mask) != want
    assert order_matters
    for mask in range(1 << plain.size):
        assert perp(plain, mask) == descending_perp(plain, mask)


def test_with_companions_rejects_what_is_outside_the_carrier(ex1_qm):
    qm = ex1_qm
    walked = [perp(qm, mask) for mask in range(1 << qm.size)]
    cache = dict(qm._pperp)
    for companions in ({qm.size: 1}, {-1: 1}, {"0": 1}, {0: 1 << qm.size}, {0: -1}):
        with pytest.raises(NotInCarrier):
            with_companions(qm, companions)
    assert qm._pperp == cache
    assert [perp(qm, mask) for mask in range(1 << qm.size)] == walked
    seeded = with_companions(qm, {0: qm.full_mask})
    assert seeded is not qm and principal_perp(seeded, 0) == qm.full_mask
    assert qm._pperp == cache


def test_iso_images_are_the_product_masks():
    for spec in ("ex1.qm", "bool3.sq-x-ab.qm", "n5.pow4.qm"):
        qm = read_qm_file(os.path.join(SPECS, spec))
        iso = closed_lattice_iso(qm)
        assert iso.is_isomorphism
        for choice, image in iso.assignments:
            assert image == product_mask(qm, choice), (spec, choice)


# -- library-bug errors ----------------------------------------------------------

def test_companion_not_closed_raises(ex1_qm, monkeypatch):
    monkeypatch.setattr(galois, "perp", lambda qm, vectors: 0)
    with pytest.raises(CompanionNotClosed):
        closed_subquasimodules(ex1_qm)


def test_companion_overlap_raises(ex1_qm, monkeypatch):
    monkeypatch.setattr(galois, "perp", lambda qm, vectors: qm.full_mask)
    with pytest.raises(CompanionOverlap):
        is_splitting(ex1_qm, SubQM(ex1_qm, ex1_qm.full_mask))


def test_splitting_not_closed_raises(ex1_qm, monkeypatch):
    monkeypatch.setattr(galois, "is_closed", lambda qm, vectors: False)
    with pytest.raises(SplittingNotClosed):
        splitting_subquasimodules(ex1_qm)


OPTIMIZED_SCRIPT = """
import sys
from quasimodules import SubQM, galois, subquasi
from quasimodules.errors import (BasisCheckFailed, CompanionNotClosed, CompanionOverlap,
                                 NodeSetEscaped, SplittingNotClosed)
from quasimodules.lattice import builtin, principal_ideal
from quasimodules.quasimodule import canonical, standard_basis

assert sys.flags.optimize
n5 = builtin("n5")
qm = canonical(n5, [principal_ideal(n5, n5.top), principal_ideal(n5, n5.index("a"))])
subs = subquasi.all_subquasimodules(qm)
full = SubQM(qm, qm.full_mask)
p, q = qm.vector("a", "0"), qm.vector("b", "0")
i, j = subs.index[subquasi.close_mask(qm, 1 << p)], subs.index[subquasi.close_mask(qm, 1 << q)]
not_basis = lambda sub, vectors: False
for error, patch, call in (
        (CompanionNotClosed, (galois, "perp", lambda qm, v: 0),
         lambda: galois.closed_subquasimodules(qm)),
        (CompanionOverlap, (galois, "perp", lambda qm, v: qm.full_mask),
         lambda: galois.is_splitting(qm, SubQM(qm, qm.full_mask))),
        (SplittingNotClosed, (galois, "is_closed", lambda qm, v: False),
         lambda: galois.splitting_subquasimodules(qm)),
        (BasisCheckFailed, (subquasi, "is_basis", not_basis), lambda: standard_basis(qm)),
        (BasisCheckFailed, (subquasi, "is_basis", not_basis),
         lambda: subquasi.find_bases(full, 2)),
        (NodeSetEscaped, (subs, "index", {}), lambda: subs.meet(i, j)),
        (NodeSetEscaped, (subs, "index", {}), lambda: subs.join(i, j))):
    saved = getattr(*patch[:2])
    setattr(*patch)
    try:
        call()
    except error:
        print(error.__name__)
    setattr(*patch[:2], saved)
"""


def test_library_bug_errors_survive_python_O():
    src = os.path.dirname(os.path.dirname(quasimodules.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["CompanionNotClosed", "CompanionOverlap",
                                   "SplittingNotClosed", "BasisCheckFailed",
                                   "BasisCheckFailed", "NodeSetEscaped", "NodeSetEscaped"]
