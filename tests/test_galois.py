import os
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
    factorize_closed,
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
from quasimodules.bitset import iter_bits, mask_of
from quasimodules.errors import (
    CompanionNotClosed,
    CompanionOverlap,
    NotClosed,
    NotZeroDistributive,
    SplittingNotClosed,
)
from quasimodules.galois import (
    closed_sets,
    factor_zero_distributivity,
    is_order_embedding,
    principal_perp,
    product_mask,
)

import golden
from conftest import KERNEL_INSTANCES, qm_from, sparse_mask


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
        j = closed.perp_node(i)
        assert closed.perp_node(j) == i


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


SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "specs")


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


# -- slab-shift paths against per-element definitions ------------------------------

@st.composite
def qm_and_two_masks(draw):
    qm = draw(st.sampled_from(KERNEL_INSTANCES))
    return qm, sparse_mask(draw, qm), sparse_mask(draw, qm)


@given(qm_and_two_masks())
@settings(max_examples=40, deadline=None)
def test_sum_set_matches_pairwise(case):
    qm, a, b = case
    want = 0
    for p in iter_bits(a):
        for q in iter_bits(b):
            want |= 1 << qm.add(p, q)
    assert sum_set(qm, a, b) == want


@pytest.mark.parametrize("qm", KERNEL_INSTANCES, ids=("ex1", "m3-x-a", "n5-pow4"))
def test_principal_perp_matches_componentwise(qm):
    meet, b = qm.lattice.meet, qm.lattice.bottom
    for p, u in enumerate(qm.carrier):
        want = 0
        for q, v in enumerate(qm.carrier):
            if all(meet[x][y] == b for x, y in zip(u, v)):
                want |= 1 << q
        assert principal_perp(qm, p) == want


def test_order_embedding_catches_broken_assignments(ex1_qm):
    assignments = list(closed_lattice_iso(ex1_qm).assignments)
    assert is_order_embedding(assignments)
    # swap the images of the bottom and top assignments
    (c0, m0), (c1, m1) = assignments[0], assignments[-1]
    assignments[0], assignments[-1] = (c0, m1), (c1, m0)
    assert not is_order_embedding(assignments)
    assert is_order_embedding([])


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
