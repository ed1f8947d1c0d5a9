import gc
import os
import random
from functools import cached_property
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quasimodules import (
    SubQM,
    all_subquasimodules,
    canonical,
    check_all,
    check_homomorphism,
    counterexample_search,
    is_subquasimodule,
    perp,
    principal_ideal,
    principal_perp,
    read_qm_file,
    reproduce_reference,
    replay_witness,
)
from quasimodules import galois
from quasimodules.bitset import bit_key, iter_bits, mask_of
from quasimodules.errors import (
    EnumerationBudgetExceeded,
    Error,
    NotClosed,
    NotZeroDistributive,
    UnknownInstance,
)
from quasimodules.verify import BUDGET, FAIL, HYP, PASS, Budgets, CLAUSE_IDS, SearchConfig
from quasimodules.verify import laws, search
from quasimodules.verify.instances import is_boolean_shape

from conftest import SPECS, SUBSET_INSTANCES, factorize_closed, poisoned, qm_from
from freeze_records_digest import digest_contexts


def by_clause(reports):
    return {r.clause: r for r in reports}


def test_check_all_passes_on_zero_distributive_instances(ex1_qm):
    reports = by_clause(check_all(ex1_qm, instance="ex1"))
    assert set(reports) == set(CLAUSE_IDS)
    assert all(r.status == PASS for r in reports.values())


def test_check_all_hypothesis_not_met_on_m3(m3_qm):
    reports = by_clause(check_all(m3_qm, instance="m3"))
    assert reports["prop2"].status == HYP
    witness = reports["prop2"].witness
    assert witness["violation"] == ["add", ["b", "0"], ["c", "0"], ["1", "0"]]
    for clause in ("th2.i", "th2.iv", "th3", "cor1", "prop-splitting-perp"):
        assert reports[clause].status == HYP
    # unconditional clauses still pass
    for clause in ("axioms", "rem1.i", "rem1.iv", "lem4.i", "lem1", "lem6.i",
                   "lem6.ii", "separation", "splitting-subset-closed",
                   "prop-splitting-product"):
        assert reports[clause].status == PASS


def test_zero_distributivity_tested_once_per_context(m3_qm, monkeypatch):
    calls = []
    real = galois.factor_zero_distributivity
    monkeypatch.setattr(galois, "factor_zero_distributivity",
                        lambda qm: calls.append(qm) or real(qm))
    reports = check_all(m3_qm)
    assert len(calls) == 1
    # every hypothesis-guarded clause carries the same message
    notes = {r.note.split(";")[0] for r in reports if r.status == HYP}
    assert notes == {"factor 0 is not 0-distributive (witness ('a', 'b', 'c'))"}
    with pytest.raises(NotZeroDistributive) as err:
        check_homomorphism(m3_qm)
    assert str(err.value) in notes and err.value.factor == 0


def test_a_context_serves_only_its_own_quasimodule(ex1_qm, m3_qm):
    ctx = laws._Ctx(ex1_qm)
    for check in (check_all, check_homomorphism):
        with pytest.raises(ValueError):
            check(m3_qm, ctx=ctx)


def test_check_all_leaves_no_reference_cycles(ex1_qm):
    # a cycle through the context would hold its companion cache until
    # the cycle collector runs, which raises the peak memory of a search
    gc.collect()
    gc.disable()
    try:
        check_all(ex1_qm)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_all_trivial_instance(n5):
    qm = canonical(n5, (principal_ideal(n5, n5.bottom),))
    assert all(r.status == PASS for r in check_all(qm))


def test_quantifier_restriction_is_stamped():
    qm = qm_from("n5", ["*", "*"])  # carrier 25 > exhaustive threshold
    reports = by_clause(check_all(qm))
    assert "sampled" in reports["rem1.i"].note
    assert all(r.status == PASS for r in reports.values())


def test_check_homomorphism(ex1_qm, m3_qm):
    report = check_homomorphism(ex1_qm)
    assert report.status == HYP
    assert report.witness is not None
    # the witness pair genuinely violates the intersection hypothesis
    qm = ex1_qm
    first = qm.mask([qm.vector(*v) for v in report.witness["first"]])
    second = qm.mask([qm.vector(*v) for v in report.witness["second"]])
    dd = lambda m: perp(qm, perp(qm, m))
    assert dd(first & second) != dd(first) & dd(second)
    with pytest.raises(NotZeroDistributive):
        check_homomorphism(m3_qm)


def test_check_homomorphism_holds_somewhere():
    qm = qm_from("boolean_2", ["*"])
    report = check_homomorphism(qm)
    assert report.status == PASS


def test_reproduce_reference_statuses():
    # every golden check passes except the two pinned to the published
    # (incomplete) subquasimodule list of ex1; a report keeps its detail only
    # on a failure
    expected_fail = {"ex1.subquasimodule-count", "ex1.subquasimodule-sets"}
    for name in ("ex2", "m3", "ex1", "fig5", "n5-power"):
        for report in reproduce_reference(name):
            want = FAIL if report.clause in expected_fail else PASS
            assert report.status == want, (report.clause, report.status)
            assert (report.instance, report.note) == (name, None)
            assert (report.witness is None) == (want == PASS), report.clause


def test_reproduce_ex1_diff_names_the_missing_set():
    reports = by_clause(reproduce_reference("ex1"))
    diff = reports["ex1.subquasimodule-count"].witness
    assert diff["count"] == 21
    assert diff["not_computed"] == []
    assert diff["not_in_golden"] == [[("0", "0"), ("a", "0"), ("a", "a"), ("c", "a")]]


def test_unknown_instance():
    with pytest.raises(UnknownInstance):
        reproduce_reference("nope")


def test_boolean_shape_helper():
    assert is_boolean_shape([0b0001, 0b0011, 0b0101, 0b0111])
    assert not is_boolean_shape([0b001, 0b011, 0b111])  # a chain


def test_search_prop2(tmp_path):
    cfg = SearchConfig(max_lattice_size=5, seed=3,
                       drop_hypotheses=("0-distributive",))
    findings = counterexample_search(cfg)
    assert findings, "a companion-closure violation exists within 5 elements"
    for f in findings:
        assert f.clause == "prop2" and f.status == FAIL
        assert replay_witness(f)
    # minimized to the smallest possible size
    assert min(int(f.instance.split("-")[0]) for f in findings) == 5


def test_search_closed_not_splitting():
    cfg = SearchConfig(max_lattice_size=6, seed=3,
                       drop_hypotheses=("closed-is-splitting",))
    findings = counterexample_search(cfg)
    assert findings
    for f in findings:
        assert f.clause == "closed-not-splitting"
        assert replay_witness(f)
    assert min(int(f.instance.split("-")[0]) for f in findings) == 5


def test_search_is_reproducible():
    cfg = SearchConfig(max_lattice_size=5, seed=11,
                       drop_hypotheses=("0-distributive",))
    first = [r.to_record() for r in counterexample_search(cfg)]
    second = [r.to_record() for r in counterexample_search(cfg)]
    for a, b in zip(first, second):
        a.pop("seconds"), b.pop("seconds")
    assert first == second


def test_search_soundness_run_is_quiet():
    # with nothing dropped, every clause holds on every generated instance
    cfg = SearchConfig(max_lattice_size=4, max_factors=2, seed=0)
    assert counterexample_search(cfg) == []


def test_search_rejects_unknown_drop():
    with pytest.raises(ValueError):
        counterexample_search(SearchConfig(drop_hypotheses=("nope",)))


def test_search_rejects_size_beyond_exhaustive_range():
    with pytest.raises(ValueError):
        counterexample_search(SearchConfig(max_lattice_size=8))


def test_search_config_rejects_empty_size_range():
    with pytest.raises(ValueError, match="max_lattice_size 0"):
        SearchConfig(max_lattice_size=0)


@pytest.mark.parametrize("max_factors", [0, 3])
def test_search_config_rejects_factor_counts_other_than_one_or_two(max_factors):
    with pytest.raises(ValueError, match="max_factors"):
        SearchConfig(max_factors=max_factors)


def test_fail_reports_replay_through_library(m3):
    # rebuild the instance from a finding's own witness text and re-run the
    # violated operation directly
    cfg = SearchConfig(max_lattice_size=5, seed=0,
                       drop_hypotheses=("0-distributive",))
    finding = counterexample_search(cfg)[0]
    from quasimodules import parse_lattice
    from quasimodules.verify.laws import _parse_factor

    lat = parse_lattice(finding.witness["lattice"])
    factors = tuple(_parse_factor(lat, d) for d in finding.witness["factors"])
    qm = canonical(lat, factors)
    mask = qm.mask([qm.vector(*v) for v in finding.witness["companion_of"]])
    ok, witness = is_subquasimodule(qm, perp(qm, mask))
    assert not ok and witness is not None


def test_soundness_findings_name_their_instance(monkeypatch):
    # the instance label is derived from the factor ideals
    monkeypatch.setattr(search, "check_all",
                        lambda qm, budgets, instance: [laws.TheoremReport("x", FAIL, instance)])
    labels = [r.instance for r in counterexample_search(SearchConfig(max_lattice_size=2))]
    assert labels == ["1-element lattice x (principal e0)",
                      "1-element lattice x (principal e0, principal e0)",
                      "2-element lattice x (principal e1)",
                      "2-element lattice x (principal e1, principal e0)",
                      "2-element lattice x (principal e1, principal e1)"]


@pytest.mark.parametrize("lattice, gens", [("n5", ["*", "a"]), ("m3", ["*", "b"]),
                                           ("chain_4", ["2", "*", "0"])])
def test_witness_doc_rebuilds_the_instance(lattice, gens):
    from quasimodules import parse_lattice
    from quasimodules.verify.laws import _parse_factor

    qm = qm_from(lattice, gens)
    doc = laws.witness_doc(qm, subset=laws.set_labels(qm, 0b1011))
    lat = parse_lattice(doc["lattice"])
    again = canonical(lat, tuple(_parse_factor(lat, d) for d in doc["factors"]))
    assert doc["factors"] == [f"principal {g if g != '*' else lat.names[lat.top]}"
                              for g in gens]
    assert [again.vector_labels(p) for p in range(again.size)] == \
        [qm.vector_labels(p) for p in range(qm.size)]
    assert doc["subset"] == [list(qm.vector_labels(p)) for p in (0, 1, 3)]


def test_check_homomorphism_two_big_factors(fig5_qm):
    report = check_homomorphism(fig5_qm, instance="fig5 x fig5")
    assert report.status in (PASS, HYP)
    if report.status == HYP:
        assert report.witness is not None


# -- the pair clauses on the generator pairs ----------------------------------
#
# The scans below are the oracle: each says whether its clause holds on a
# companion table `tab` over the given pairs of subset masks, and over all
# 4^m pairs it is the clause itself.

def all_pairs(m):
    n = 1 << m
    return [(a, b) for a in range(n) for b in range(n)]


def generator_pairs(m):
    """The pairs the pair clauses scan at every size; `_Ctx.pair_pool` reads
    nothing of the context but m."""
    return list(laws._Ctx.pair_pool(SimpleNamespace(m=m)))


def scan_rem1_ii(tab, pairs):
    return all(a & ~b or not tab[b] & ~tab[a] for a, b in pairs)


def scan_rem1_iv(tab, pairs):
    return all((a & ~tab[b] == 0) == (b & ~tab[a] == 0) for a, b in pairs)


def scan_lem4_i(tab, pairs):
    return all(tab[a] & tab[b] == tab[a | b] for a, b in pairs)


def scan_lem4_ii(tab, pairs):
    return all(not tab[tab[a & b]] & ~(tab[tab[a]] & tab[tab[b]]) for a, b in pairs)


PAIR_CLAUSES = ("rem1.ii", "rem1.iv", "lem4.i", "lem4.ii")
SCANS = dict(zip(PAIR_CLAUSES, (scan_rem1_ii, scan_rem1_iv, scan_lem4_i, scan_lem4_ii)))

# The notes a pass or fail of the subset clauses and lem1 keeps beyond 16
# vectors, and of the pair clauses beyond 10, though none samples: frozen CLI
# stdout holds them.
SUBSET_NOTE = "sampled: subquasimodules, singletons and 1000 seeded subsets"
PAIR_NOTE = "pairs sampled: subquasimodule pairs plus 1500 seeded pairs"
SUBSET_NOTE_CLAUSES = ("rem1.i", "rem1.iii", "lem4.iv", "prop2", "th2.i", "th2.ii", "lem1")
FROZEN_NOTES = {**dict.fromkeys(SUBSET_NOTE_CLAUSES, (16, SUBSET_NOTE)),
                **dict.fromkeys(PAIR_CLAUSES, (10, PAIR_NOTE))}


@pytest.mark.parametrize("spec", ["ex1.qm", "chain4.sq.qm", "n5.sq.qm", None],
                         ids=["ex1", "chain4.sq", "n5.sq", "m3-sq"])
def test_frozen_notes_stamp_only_passes_and_fails_beyond_their_size(spec):
    # ex1, chain4.sq and n5.sq (10, 16 and 25 vectors) and M3^2 (25 vectors,
    # not 0-distributive), each at the default node budget and at 5 nodes
    qm = read_qm_file(os.path.join(SPECS, spec)) if spec else qm_from("m3", ["*", "*"])
    seen = set()
    for budgets in (Budgets(), Budgets(max_nodes=5)):
        ctx = laws._Ctx(qm, budgets)
        records = check_all(qm, ctx=ctx)
        if ctx.zd_defect is None:
            records.append(check_homomorphism(qm, ctx=ctx))
        for r in records:
            frozen = FROZEN_NOTES.get(r.clause)
            if frozen and r.status in (PASS, FAIL):
                assert r.note == (frozen[1] if qm.size > frozen[0] else None), r.clause
            else:
                assert r.note not in (SUBSET_NOTE, PAIR_NOTE), r.clause
            seen.add((r.status, r.clause in FROZEN_NOTES))
    assert (BUDGET, False) in seen
    assert ((HYP, True) in seen) == (spec is None)


@st.composite
def companion_tables(draw):
    """(tab, m, full) with m <= 6, built the way every companion table is:
    perp(0) AND the singleton companions of the members, with the singleton
    relation symmetrized or not and perp(0) the carrier or not."""
    m = draw(st.integers(1, 6))
    full = (1 << m) - 1
    singles = [draw(st.integers(0, full)) for _ in range(m)]
    if draw(st.booleans()):
        for p in range(m):
            for q in range(p + 1, m):
                if singles[p] >> q & 1:
                    singles[q] |= 1 << p
                else:
                    singles[q] &= ~(1 << p)
    tab = [full if draw(st.booleans()) else draw(st.integers(0, full))]
    for b in range(1, 1 << m):
        low = b & -b
        tab.append(tab[b ^ low] & singles[low.bit_length() - 1])
    return tab, m, full


@given(companion_tables())
@settings(max_examples=300, deadline=None)
def test_covering_steps_match_pair_scans(table):
    # the generator pairs decide each pair clause exactly on a meet table
    tab, m, _ = table
    pool = generator_pairs(m)
    pairs = all_pairs(m)
    for clause, scan in SCANS.items():
        assert scan(tab, pool) == scan(tab, pairs), clause


def test_rem1_iv_needs_perp_of_empty_set_to_be_the_carrier():
    # {0} is orthogonal to itself, {1} to nothing: a symmetric singleton
    # relation on a meet table, but perp(0) = {0}, so the pair ({1}, 0) fails
    tab, m = [0b01, 0b01, 0b00, 0b00], 2
    assert scan_lem4_i(tab, all_pairs(m))
    assert not scan_rem1_iv(tab, all_pairs(m))
    assert not scan_rem1_iv(tab, generator_pairs(m))


def _records(qm, monkeypatch, scans):
    """check_all records without timings; with `scans`, the pair clauses
    quantify over all 4^m pairs instead of the generator pairs."""
    with monkeypatch.context() as patch:
        if scans:
            patch.setattr(laws._Ctx, "pair_pool", lambda ctx: all_pairs(ctx.m))
        records = [r.to_record() for r in check_all(qm, instance="x")]
    for r in records:
        r.pop("seconds")
    return records


def meet_table(qm):
    """The former 2^m companion table, kept as the oracle: perp by mask, each
    entry the one without its lowest member AND that member's companion."""
    singles = [principal_perp(qm, p) for p in range(qm.size)]
    tab = [qm.full_mask]
    for mask in range(1, 1 << qm.size):
        low = mask & -mask
        tab.append(tab[mask ^ low] & singles[low.bit_length() - 1])
    return tab


def _mask(qm, labels):
    """The subset mask a witness names by its vector labels."""
    position = {tuple(qm.vector_labels(p)): p for p in range(qm.size)}
    return sum(1 << position[tuple(v)] for v in labels)


def _witness_pair(qm, witness):
    """The two subset masks a pair-clause witness names, from their labels."""
    keys = ("smaller", "larger") if "smaller" in witness else ("first", "second")
    return tuple(_mask(qm, witness[k]) for k in keys)


@pytest.mark.parametrize("case", ["ex1", "m3", "ex1-flipped"])
def test_covering_steps_keep_pair_scan_records(case, ex1_qm, m3_qm, monkeypatch):
    qm = m3_qm if case == "m3" else ex1_qm
    if case == "ex1-flipped":
        # put (1,a), the last position, into the companion of (a,a) but not
        # (a,a) into that of (1,a): an asymmetric singleton relation, which
        # the generator pairs can only see through the last singleton
        p, q = qm.vector("a", "a"), qm.vector("1", "a")
        assert q == qm.size - 1
        qm = galois.with_companions(qm, {p: principal_perp(qm, p) | 1 << q})
        assert not principal_perp(qm, q) >> p & 1
    new = _records(qm, monkeypatch, scans=False)
    old = _records(qm, monkeypatch, scans=True)
    statuses = {r["clause"]: r["status"] for r in new}
    if case != "ex1-flipped":
        assert new == old
        assert all(statuses[c] == PASS for c in PAIR_CLAUSES)
        if case == "m3":
            assert statuses["prop2"] == HYP
        return
    # only rem1.iv fails among the pair clauses, and it may name another
    # violating pair than the scan
    assert [statuses[c] for c in PAIR_CLAUSES] == [PASS, FAIL, PASS, PASS]
    tab = meet_table(qm)
    for r, o in zip(new, old):
        if r["clause"] == "rem1.iv":
            assert o["status"] == FAIL
            assert not scan_rem1_iv(tab, [_witness_pair(qm, r["witness"])])
            r, o = dict(r, witness=None), dict(o, witness=None)
        assert r == o


# -- the former subset pool -----------------------------------------------------

OLD_RANDOM_SUBSETS, OLD_RANDOM_PAIRS = 1000, 1500


def old_subset_pool(ctx):
    """The former subset pool, kept for the oracles: up to 16 vectors the
    generators and the pairs {zero, q}; beyond, the empty set, {zero}, the
    carrier, the singletons, every subquasimodule and 1000 subsets seeded
    from Random(seed + 2), with the note of that pool."""
    pairs = (ctx.zmask | 1 << q for q in range(ctx.m))
    if ctx.m <= 16:
        return sorted({*laws.generators(ctx.m), *pairs}), None
    pool = {ctx.zmask, ctx.full, *laws.generators(ctx.m)}
    if ctx.subs is not None:
        pool.update(ctx.subs.nodes)
    rng = random.Random(ctx.b.seed + 2)
    for _ in range(OLD_RANDOM_SUBSETS):
        pool.add(rng.getrandbits(ctx.m))
    note = f"sampled: subquasimodules, singletons and {OLD_RANDOM_SUBSETS} seeded subsets"
    return sorted(pool), note


class SampledSubsetCtx(laws._Ctx):
    """A context whose subset clauses walk the former subset pool."""

    subset_pool = cached_property(lambda ctx: old_subset_pool(ctx)[0])


# -- lem1 on the empty set and the singletons ---------------------------------

def old_lem1(ctx):
    """The former lem1 walk, kept as the oracle: every subset in ascending
    order up to 16 vectors (projections by dynamic programming), the sampled
    subset pool through qm.project beyond."""
    qm, k = ctx.qm, len(ctx.qm.factors)
    pool, note = old_subset_pool(ctx)
    fqms = [qm.factor_qm(i) for i in range(k)]
    if note is None:
        pool = range(1 << ctx.m)
        proj = [[0] * (1 << ctx.m) for _ in range(k)]
        for i, row in enumerate(proj):
            for mask in range(1, 1 << ctx.m):
                low = mask & -mask
                row[mask] = row[mask ^ low] | 1 << qm.carrier[low.bit_length() - 1][i]
        project = lambda a, i: proj[i][a]
    else:
        project = qm.project
    fperp = {}

    def factor_perp(i, emask):
        if (i, emask) not in fperp:
            fqm = fqms[i]
            fperp[i, emask] = fqm.project(perp(fqm, galois.product_mask(fqm, [emask])), 0)
        return fperp[i, emask]

    for a in pool:
        expect = galois.product_mask(qm, [factor_perp(i, project(a, i)) for i in range(k)])
        if ctx.perp[a] != expect:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


# ex1, M3 x [0,a] (not 0-distributive), chain_4^2 (16 vectors, the largest
# exhaustive size) and N5^2 (25 vectors, sampled pool)
COMPANION_INSTANCES = {"ex1": ("n5", ["*", "a"]), "m3xa": ("m3", ["*", "a"]),
                       "chain4sq": ("chain_4", ["*", "*"]), "n5sq": ("n5", ["*", "*"])}


@pytest.mark.parametrize("name", sorted(COMPANION_INSTANCES))
def test_lem1_on_generators_keeps_subset_walk_records(name):
    # unpoisoned, then each singleton companion poisoned before the context
    # is built (so the table stays the meet of its singleton entries), then
    # the table entry of the empty set broken
    plain = qm_from(*COMPANION_INSTANCES[name])
    size = plain.size
    for poison in (None, "empty", *range(size)):
        seeds = {} if poison in (None, "empty") else {
            poison: principal_perp(plain, poison) ^ 1 << plain.zero}
        qm = galois.with_companions(plain, seeds)
        ctx = laws._Ctx(qm, Budgets(), name)
        if poison == "empty":
            ctx.perp[0] ^= 1 << qm.zero
        got = laws._record(ctx, "lem1", laws._c_lem1)
        assert (got.status, got.witness, got.note) == old_lem1(ctx), poison
        assert got.status == (PASS if poison is None else FAIL), poison
        assert (got.note is None) == (size <= 16)


# the former Budgets.family_samples, the family count of the oracles below,
# and their largest family
FAMILY_SAMPLES = 300
MAX_FAMILY = 4


def _families(rng, pool, count):
    """`count` families of 3..MAX_FAMILY members drawn from pool by rng."""
    for _ in range(count):
        size = rng.randint(3, MAX_FAMILY)
        yield tuple(rng.choice(pool) for _ in range(size))


def _intersect(masks):
    """The meet of a family of masks; 0 for an empty family."""
    out = None
    for m in masks:
        out = m if out is None else out & m
    return out if out is not None else 0


def old_family_check(ctx, law):
    """The former family re-check of lem4.i and lem4.ii, kept as an oracle:
    seeded families of 3-4 members drawn from every subset up to 16
    vectors, from the sampled subset pool beyond."""
    pool, note = old_subset_pool(ctx)
    if note is None:
        pool = range(1 << ctx.m)
    rng = random.Random(ctx.b.seed + 6)
    return all(law(fam) for fam in _families(rng, list(pool), FAMILY_SAMPLES))


@pytest.mark.parametrize("name", sorted(COMPANION_INSTANCES))
def test_family_laws_hold_where_the_pair_laws_hold(name):
    # lem4.i and lem4.ii for families follow from their pair forms by
    # induction on family size, so the former family re-check passes
    qm = qm_from(*COMPANION_INSTANCES[name])
    ctx = laws._Ctx(qm, Budgets(), name)
    assert laws._c_lem4_i(ctx)[0] == laws._c_lem4_ii(ctx)[0] == PASS
    assert old_family_check(
        ctx, lambda fam: _intersect(ctx.perp[x] for x in fam)
        == ctx.perp[laws._union(fam)])
    assert old_family_check(
        ctx, lambda fam: ctx.dd_of(_intersect(fam))
        & ~_intersect(ctx.dd_of(x) for x in fam) == 0)


@pytest.mark.parametrize("lattice, gens", [("n5", ["*", "a"]), ("m3", ["*", "a"]),
                                           ("chain_4", ["*", "*"]),
                                           ("boolean_2", ["*", "a"]), ("n5", ["*", "*"])])
def test_companion_table_matches_perp(lattice, gens):
    # every mask up to 16 vectors against the meet table, sampled beyond
    qm = qm_from(lattice, gens)
    cache = laws._Ctx(qm, Budgets(), "x").perp
    assert isinstance(cache, laws._Memo)
    if qm.size <= 16:
        masks, want = range(1 << qm.size), meet_table(qm)
    else:
        rng = random.Random(0)
        masks = [0, qm.full_mask, *(rng.getrandbits(qm.size) for _ in range(300))]
        want = {a: perp(qm, a) for a in masks}
    for a in masks:
        assert cache[a] == want[a], a


# -- subset clauses on the generators and the companion family ----------------
#
# The former bodies, kept as the oracle: each walks every subset in
# ascending order on the 2^m meet table (OldCtx).

class OldCtx(laws._Ctx):
    def __init__(self, qm):
        super().__init__(qm, Budgets(), "old")
        self.perp = meet_table(qm)
        self.subset_pool = range(1 << self.m), None


def old_rem1_i(ctx):
    pool, note = ctx.subset_pool
    for a in pool:
        if a & ~ctx.dd_of(a):
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def old_rem1_iii(ctx):
    pool, note = ctx.subset_pool
    for a in pool:
        pa = ctx.perp[a]
        if ctx.perp[ctx.perp[pa]] != pa:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def old_lem4_iv(ctx):
    pool, note = ctx.subset_pool
    for a in pool:
        if a == 0:
            continue
        inter = a & ctx.perp[a]
        if inter & ~ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
        if a & ctx.zmask and inter != ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def old_prop2(ctx):
    pool, note = ctx.subset_pool
    if ctx.zd_defect is not None:
        hyp_note = str(ctx.zd_defect)
        for a in pool:
            ok, witness = ctx.subqm[ctx.perp[a]]
            if not ok:
                return HYP, ctx.doc(
                    subset=ctx.labels(a),
                    companion=ctx.labels(ctx.perp[a]),
                    violation=laws.violation_labels(ctx.qm, witness)), hyp_note
        return HYP, None, hyp_note + "; no companion-closure violation in the pool"
    for a in pool:
        ok, witness = ctx.subqm[ctx.perp[a]]
        if not ok:
            return FAIL, ctx.doc(subset=ctx.labels(a),
                                 violation=laws.violation_labels(ctx.qm, witness)), note
    return PASS, None, note


@laws._hyp_guard
def old_th2_i(ctx):
    nodes = set(ctx.closed.nodes)
    pool, note = ctx.subset_pool
    seen = set()
    for a in pool:
        pa = ctx.perp[a]
        seen.add(pa)
        if pa not in nodes:
            return FAIL, ctx.doc(subset=ctx.labels(a), companion=ctx.labels(pa)), note
    if note is None and seen != nodes:
        missing = sorted(nodes - seen, key=bit_key)[0]
        return FAIL, ctx.doc(closed_not_a_companion=ctx.labels(missing)), note
    return PASS, None, note


@laws._hyp_guard
def old_th2_ii(ctx):
    nodes = ctx.closed.nodes
    pool, note = ctx.subset_pool
    for a in pool:
        dd = ctx.dd_of(a)
        if a & ~dd or dd not in ctx.closed.index:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
        for n in nodes:
            if a & ~n == 0 and dd & ~n:
                return FAIL, ctx.doc(subset=ctx.labels(a), smaller_closed=ctx.labels(n)), note
    return PASS, None, note


@laws._hyp_guard
def old_th2_iii(ctx):
    nodes = ctx.closed.nodes
    for a in nodes:
        for b in nodes:
            join = ctx.dd_of(a | b)
            if join not in ctx.closed.index or (a | b) & ~join:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
            for n in nodes:
                if (a | b) & ~n == 0 and join & ~n:
                    return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b),
                                         upper=ctx.labels(n)), None
    if ctx.dd_of(laws._union(nodes)) != ctx.full:
        return FAIL, ctx.doc(family="all closed"), None
    return PASS, None, None


@laws._hyp_guard
def old_th2_iv(ctx):
    closed = ctx.closed
    nodes = closed.nodes
    for i, a in enumerate(nodes):
        pa = ctx.perp[a]
        if pa not in closed.index or ctx.perp[pa] != a:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
        if closed.perp_map[i] != closed.index[pa]:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
    for a in nodes:
        for b in nodes:
            if a & ~b == 0 and ctx.perp[b] & ~ctx.perp[a]:
                return FAIL, ctx.doc(smaller=ctx.labels(a), larger=ctx.labels(b)), None
    return PASS, None, None


@laws._hyp_guard
def old_th2_v(ctx):
    closed = ctx.closed
    index = closed.index
    nodes = closed.nodes
    if ctx.zmask not in index or ctx.full not in index:
        return FAIL, ctx.doc(), None
    for a in nodes:
        for b in nodes:
            if a & b not in index or ctx.dd_of(a | b) not in index:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


SUBSET_CLAUSES = {
    "rem1.i": (laws._c_rem1_i, old_rem1_i),
    "rem1.iii": (laws._c_rem1_iii, old_rem1_iii),
    "lem4.iv": (laws._c_lem4_iv, old_lem4_iv),
    "prop2": (laws._c_prop2, old_prop2),
    "th2.i": (laws._c_th2_i, old_th2_i),
    "th2.ii": (laws._c_th2_ii, old_th2_ii),
    "th2.iii": (laws._c_th2_iii, old_th2_iii),
    "th2.iv": (laws._c_th2_iv, old_th2_iv),
    "th2.v": (laws._c_th2_v, old_th2_v),
}


def _outcome(clause, ctx):
    """(status, witness) of one clause; a library error raised while the
    closed lattice is built stands in for the status."""
    try:
        status, witness, _ = clause(ctx)
    except Error as exc:
        return type(exc).__name__, None
    return status, witness


def violates(clause, qm, tab, closed, witness):
    """True iff a FAIL witness of `clause` violates the law as stated, on
    the meet table `tab` and the closed node masks `closed`."""
    def dd(a):
        return tab[tab[a]]

    if clause in SCANS:
        return not SCANS[clause](tab, [_witness_pair(qm, witness)])
    w = {k: v if k in ("lattice", "factors", "violation", "family") else _mask(qm, v)
         for k, v in witness.items()}
    z = 1 << qm.zero
    if clause == "rem1.i":
        return w["subset"] & ~dd(w["subset"]) != 0
    if clause == "rem1.iii":
        return dd(tab[w["subset"]]) != tab[w["subset"]]
    if clause == "lem4.iv":
        a = w["subset"]
        inter = a & tab[a]
        return a != 0 and (inter & ~z != 0 or (a & z != 0 and inter != z))
    if clause == "prop2":
        return not is_subquasimodule(qm, tab[w["subset"]])[0]
    if clause == "th2.i":
        return tab[w["subset"]] not in closed
    if clause == "th2.ii":
        a = w["subset"]
        if "smaller_closed" in w:
            n = w["smaller_closed"]
            return n in closed and a & ~n == 0 and dd(a) & ~n != 0
        return a & ~dd(a) != 0 or dd(a) not in closed
    if clause == "th2.iv":
        n = w["node"]
        return n in closed and (tab[n] not in closed or dd(n) != n)
    if clause == "th2.v":
        if "first" not in w:
            return z not in closed or qm.full_mask not in closed
        return {w["first"], w["second"]} <= closed and dd(w["first"] | w["second"]) not in closed
    if "family" in w:
        return dd(laws._union(closed)) != qm.full_mask
    a, b = w["first"], w["second"]
    join = dd(a | b)
    if not {a, b} <= closed:
        return False
    if "upper" in w:
        n = w["upper"]
        return n in closed and (a | b) & ~n == 0 and join & ~n != 0
    return join not in closed or (a | b) & ~join != 0


@pytest.mark.parametrize("name", list(SUBSET_INSTANCES))
def test_subset_clauses_keep_subset_walk_statuses(name):
    fails = set()
    for poison, qm in poisoned(*SUBSET_INSTANCES[name]):
        new, old = laws._Ctx(qm, Budgets(), name), OldCtx(qm)
        statuses = set()
        for clause, (new_body, old_body) in SUBSET_CLAUSES.items():
            status, witness = _outcome(new_body, new)
            assert status == _outcome(old_body, old)[0], (clause, poison)
            statuses.add(status)
            if status == FAIL:
                fails.add(clause)
                closed = set(old.closed.nodes) if clause.startswith("th2") else set()
                assert violates(clause, qm, old.perp, closed, witness), (clause, poison)
        assert poison is not None or statuses <= {PASS, HYP}
    assert {"rem1.i", "rem1.iii", "lem4.iv"} <= fails
    assert name == "m3xa" or {"th2.ii", "th2.iii", "th2.iv"} <= fails


@laws._hyp_guard
def old_th3(ctx):
    """The former th3, kept as the oracle: factorize_closed on every closed
    node, which raises on a violation, then every product of factor closed
    sets must be a closed node."""
    qm = ctx.qm
    for mask in ctx.closed.nodes:
        factorize_closed(qm, SubQM(qm, mask))  # raises on violation
    index = ctx.closed.index
    for choice, image in ctx.iso.assignments:
        if image not in index:
            labels = [list(qm.lattice.labels(m)) for m in choice]
            return FAIL, ctx.doc(factor_choice=labels), None
    return PASS, None, None


def violates_th3(qm, closed, witness):
    """True iff a th3 FAIL witness names a closed node that is not the product
    of closed projections, or a product of closed factor sets that is no
    closed node."""
    if "factor_choice" in witness:
        choice = [mask_of(map(qm.lattice.index, labels))
                  for labels in witness["factor_choice"]]
        return galois.product_mask(qm, choice) not in closed
    node = _mask(qm, witness["node"])
    fqms = [qm.factor_qm(i) for i in range(len(qm.factors))]
    parts = [qm.project(node, i) for i in range(len(fqms))]
    parts_closed = all(galois.is_closed(fqm, galois.product_mask(fqm, [em]))
                       for fqm, em in zip(fqms, parts))
    return node in closed and (not parts_closed or galois.product_mask(qm, parts) != node)


def test_th3_reads_the_product_map():
    # the 0-distributive SUBSET_INSTANCES, poisoned: where the closed lattice
    # builds, the new th3 agrees with the former one, but where
    # factorize_closed raised it gives a record
    split = {}
    for name in ("ex1", "chain3sq", "bool2xa", "fig5", "n5xb", "chain4sq"):
        for poison, qm in poisoned(*SUBSET_INSTANCES[name]):
            new, old = laws._Ctx(qm, Budgets(), name), laws._Ctx(qm, Budgets(), name)
            status, witness = _outcome(laws._c_th3, new)
            key = (_outcome(old_th3, old)[0], status)
            split[key] = split.get(key, 0) + 1
            if status == FAIL:
                assert violates_th3(qm, set(new.closed.nodes), witness), (name, poison)
    assert split == {(PASS, PASS): 75,
                     ("CompanionNotClosed", "CompanionNotClosed"): 10,
                     ("FactorizationFailed", "FactorizationFailed"): 90,
                     ("NotClosed", FAIL): 3, ("NotClosed", PASS): 2,
                     ("FactorizationFailed", FAIL): 3}


def test_th3_catches_a_product_that_is_no_closed_node():
    # fig5 with b orthogonal to every vector: the companion {0, a, c} of b
    # is no longer a generator, so its product is no closed node, while
    # every closed node still factors; the former th3 raised here
    plain = qm_from("fig5", ["*"])
    qm = galois.with_companions(plain, {plain.vector("b"): plain.full_mask})
    new, old = laws._Ctx(qm, Budgets(), "fig5"), laws._Ctx(qm, Budgets(), "fig5")
    status, witness, _ = laws._c_th3(new)
    assert (status, witness["factor_choice"]) == (FAIL, [["0", "a", "c"]])
    assert violates_th3(qm, set(new.closed.nodes), witness)
    with pytest.raises(NotClosed):
        old_th3(old)


@pytest.mark.parametrize("fault, failing", [
    ("companions-zero", {"th2.iv"}),
    ("pair-dropped", {"th2.i", "th2.ii", "th3", "cor1"}),
], ids=["companions-zero", "pair-dropped"])
def test_a_wrong_product_lattice_fails_the_product_clauses(fault, failing):
    # ex1's closed lattice is built from its factors'; a fault planted in the
    # N5 factor's lattice first is carried into the product: every proper
    # node's companion taken as {zero}, or the pair {0, b}, {0, a, c} of
    # closed sets dropped
    qm = qm_from("n5", ["*", "a"])
    fqm = qm.factor_qm(0)
    nodes, zero = galois.closed_sets(fqm), 1 << fqm.zero
    if fault == "companions-zero":
        fqm._closed = galois.ClosedLattice(
            fqm, nodes, lambda mask: fqm.full_mask if mask == zero else zero)
    else:
        pair = galois.perp(fqm, 1 << fqm.vector("a"))
        pair = {pair, galois.perp(fqm, pair)}
        fqm._closed = galois.ClosedLattice(fqm, nodes - pair,
                                           lambda mask: galois.perp(fqm, mask))
    assert {r.clause for r in check_all(qm) if r.status == FAIL} == failing


# -- the generator pairs against the former sampled pair pool ----------------

def old_pair_pool(ctx):
    """The former pair pool, kept as the oracle: all 4^m pairs up to 10
    vectors; beyond, one list of every subquasimodule pair, the seeded pairs
    and the three fixed sets against the first 64 pool subsets."""
    if ctx.m <= 10:
        return all_pairs(ctx.m), None
    base, _ = old_subset_pool(ctx)
    nodes = list(ctx.subs.nodes) if ctx.subs is not None else []
    pairs = [(a, b) for a in nodes for b in nodes]
    rng = random.Random(ctx.b.seed + 3)
    for _ in range(OLD_RANDOM_PAIRS):
        pairs.append((rng.choice(base), rng.choice(base)))
    pairs.extend((a, b) for a in (0, ctx.zmask, ctx.full) for b in base[:64])
    note = f"pairs sampled: subquasimodule pairs plus {OLD_RANDOM_PAIRS} seeded pairs"
    return pairs, note


# ex1 (10 vectors, generator pairs), chain_4^2 (16), N5^2 (25) and fig5^2
# (36 vectors, 696 subquasimodules)
PAIR_POOL_INSTANCES = {"ex1": ("n5", ["*", "a"]), "chain4sq": ("chain_4", ["*", "*"]),
                       "n5sq": ("n5", ["*", "*"]), "fig5sq": ("fig5", ["*", "*"])}


@pytest.mark.parametrize("name", list(PAIR_POOL_INSTANCES))
def test_pair_pool_is_the_generator_pairs(name):
    # the (m + 1)(m + 2)/2 unordered pairs of the empty set and the
    # singletons, each once with b from a onward, in product order, at every
    # size; beyond 10 vectors the former note stays
    ctx = laws._Ctx(qm_from(*PAIR_POOL_INSTANCES[name]), Budgets(), name)
    gens = [0] + [1 << p for p in range(ctx.m)]
    assert list(ctx.pair_pool()) == [(a, b) for i, a in enumerate(gens) for b in gens[i:]]
    notes = {laws._record(ctx, clause, body).note for clause, body in PAIR_BODIES.items()}
    assert notes == {None if ctx.m <= 10 else PAIR_NOTE}


def _all_records(qm, name):
    records = [r.to_record() for r in check_all(qm, instance=name)]
    records.append(check_homomorphism(qm, instance=name).to_record())
    for r in records:
        r.pop("seconds")
    return records


@pytest.mark.parametrize("name", list(PAIR_POOL_INSTANCES))
def test_sampled_pair_pool_keeps_records(name, monkeypatch):
    # the former pool's note is the pair clauses' note
    qm = qm_from(*PAIR_POOL_INSTANCES[name])
    new = _all_records(qm, name)
    notes = set()

    def old_pairs(ctx):
        pairs, note = old_pair_pool(ctx)
        notes.add(note)
        return pairs

    monkeypatch.setattr(laws._Ctx, "pair_pool", old_pairs)
    assert new == _all_records(qm, name)
    assert {r["note"] for r in new if r["clause"] in PAIR_CLAUSES} == notes


@pytest.mark.parametrize("name", ["n5sq", "fig5sq"])
def test_sampled_subset_pool_keeps_records(name, monkeypatch):
    # the former pool's note is the subset clauses' and lem1's note
    qm = qm_from(*PAIR_POOL_INSTANCES[name])
    new = _all_records(qm, name)
    monkeypatch.setattr(laws._Ctx, "subset_pool", SampledSubsetCtx.subset_pool)
    assert new == _all_records(qm, name)
    _, note = old_subset_pool(laws._Ctx(qm, Budgets(), name))
    assert {r["note"] for r in new if r["clause"] in SUBSET_NOTE_CLAUSES} == {note}


def test_subset_clauses_leave_the_subquasimodules_unenumerated():
    # above 16 vectors too, the subset clauses and lem1 walk the generators
    ctx = laws._Ctx(qm_from(*PAIR_POOL_INSTANCES["n5sq"]), Budgets(), "n5sq")
    for body, _ in SUBSET_CLAUSES.values():
        assert body(ctx)[0] == PASS
    assert laws._c_lem1(ctx)[0] == PASS
    assert "subs" not in ctx.__dict__


class LazyMeetTable(dict):
    """meet_table's entries on first lookup, for carriers too large to list:
    the AND of the singleton companions of the members."""

    def __init__(self, qm):
        super().__init__()
        self.full = qm.full_mask
        self.singles = [principal_perp(qm, p) for p in range(qm.size)]

    def __missing__(self, mask):
        value = self.full
        for p in iter_bits(mask):
            value &= self.singles[p]
        self[mask] = value
        return value


class SampledPairCtx(laws._Ctx):
    """A context whose pair clauses scan the former sampled pool, built once."""

    @cached_property
    def old_pairs(self):
        return old_pair_pool(self)

    def pair_pool(self):
        return self.old_pairs[0]


def test_generators_keep_sampled_subset_statuses():
    # N5^2 (25 vectors) poisoned: the subset clauses on the generator pool
    # against the former sampled pool. It holds every singleton and, being
    # ascending, the same first witness, but for lem4.iv, whose first failing
    # pair {zero, q} it may lack
    fails = set()
    for poison, qm in poisoned(*PAIR_POOL_INSTANCES["n5sq"]):
        new = laws._Ctx(qm, Budgets(), "n5sq")
        old = SampledSubsetCtx(qm, Budgets(), "n5sq")
        tab = LazyMeetTable(qm)
        for clause in ("rem1.i", "lem4.iv", "prop2", "th2.i", "th2.ii"):
            body = SUBSET_CLAUSES[clause][0]
            status, witness = _outcome(body, new)
            old_status, old_witness = _outcome(body, old)
            assert status == old_status, (clause, poison)
            assert clause == "lem4.iv" or witness == old_witness, (clause, poison)
            if status == FAIL:
                fails.add(clause)
                closed = set(new.closed.nodes) if clause.startswith("th2") else set()
                assert violates(clause, qm, tab, closed, witness), (clause, poison)
    assert fails == {"rem1.i", "lem4.iv", "prop2", "th2.i", "th2.ii"}


PAIR_BODIES = dict(zip(PAIR_CLAUSES, (laws._c_rem1_ii, laws._c_rem1_iv,
                                      laws._c_lem4_i, laws._c_lem4_ii)))


@pytest.mark.parametrize("name", ["chain4sq", "n5sq"])
def test_generator_pairs_keep_sampled_pair_failures(name):
    # each singleton companion without zero, then a seeded other q dropped
    # from {p}*, each before the context is built, so that the singleton
    # relation is no longer symmetric; first, the companion of the empty set
    # without zero, a table entry that only the pairs (0, {q}) see
    lattice, gens = PAIR_POOL_INSTANCES[name]
    plain = qm_from(lattice, gens)
    size, zero = plain.size, plain.zero
    rng = random.Random(size)
    seeded = []
    for _ in range(4):
        p = rng.randrange(size)
        seeded.append((p, rng.choice([q for q in iter_bits(principal_perp(plain, p))
                                      if q != p])))
    generators = laws.generators(size)
    for poison in ["empty", *((p, zero) for p in range(size)), *seeded]:
        seeds = {}
        if poison != "empty":
            p, q = poison
            seeds[p] = principal_perp(plain, p) & ~(1 << q)
        qm = galois.with_companions(plain, seeds)
        new, old = laws._Ctx(qm, Budgets(), name), SampledPairCtx(qm, Budgets(), name)
        tab = LazyMeetTable(qm)
        if poison == "empty":
            for companions in (new.perp, old.perp, tab):
                companions[0] ^= 1 << zero
        fails = set()
        for clause, body in PAIR_BODIES.items():
            status, witness, _ = body(new)
            assert status == FAIL or body(old)[0] != FAIL, (clause, poison)
            if status == FAIL:
                fails.add(clause)
                assert violates(clause, qm, tab, set(), witness), (clause, poison)
        # only {zero}* without zero leaves the relation symmetric
        assert bool(fails) == (poison != (zero, zero)), poison
        # the pool holds every generator pair on which a pair clause fails,
        # as (a, b) or, for the clauses symmetric in a and b, as (b, a)
        pool = set(new.pair_pool())
        assert all((a, b) in pool or (clause != "rem1.ii" and (b, a) in pool)
                   for a in generators for b in generators
                   for clause, scan in SCANS.items() if not scan(tab, [(a, b)])), poison


# -- check_homomorphism without its redundant loops -----------------------------

def old_check_homomorphism(qm, budgets=None, instance=None):
    """The former check_homomorphism, kept as the oracle: the hypothesis on
    all node pairs and on seeded families, then the conclusion with the
    complement law and the intersection law re-checked on families."""
    budgets = budgets or Budgets()
    instance = instance or repr(qm)
    ctx = laws._Ctx(qm, budgets, instance)
    if ctx.zd_defect is not None:
        raise ctx.zd_defect
    try:
        nodes = ctx.subs.nodes
    except EnumerationBudgetExceeded as exc:
        return laws.TheoremReport("homomorphism", laws.BUDGET, instance, None, str(exc))

    def finish(status, witness, note):
        return laws.TheoremReport("homomorphism", status, instance, witness, note)

    for a in nodes:
        for b in nodes:
            if ctx.dd_of(a & b) != ctx.dd_of(a) & ctx.dd_of(b):
                return finish(HYP, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)),
                              "intersection hypothesis fails; homomorphism not claimed")
    rng = random.Random(budgets.seed + 7)
    for fam in _families(rng, nodes, FAMILY_SAMPLES):
        if ctx.dd_of(_intersect(fam)) != _intersect(ctx.dd_of(x) for x in fam):
            return finish(HYP, ctx.doc(family=[ctx.labels(x) for x in fam]),
                          "intersection hypothesis fails on a family; "
                          "homomorphism not claimed")
    note = (f"hypothesis holds over {len(nodes)}^2 pairs and "
            f"{FAMILY_SAMPLES} seeded families")
    for a in nodes:
        pa = ctx.perp[a]
        if ctx.dd_of(pa) != ctx.perp[ctx.dd_of(a)]:
            return finish(FAIL, ctx.doc(node=ctx.labels(a)), note)
        for b in nodes:
            join = ctx.close[a | b]
            if ctx.dd_of(join) != ctx.dd_of(ctx.dd_of(a) | ctx.dd_of(b)):
                return finish(FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note)
    if ctx.dd_of(ctx.zmask) != ctx.zmask or ctx.dd_of(qm.full_mask) != qm.full_mask:
        return finish(FAIL, ctx.doc(), note)
    for fam in _families(rng, nodes, FAMILY_SAMPLES):
        joined = ctx.dd_of(laws._union(ctx.dd_of(x) for x in fam))
        if ctx.dd_of(ctx.close[laws._union(fam)]) != joined:
            return finish(FAIL, ctx.doc(family=[ctx.labels(x) for x in fam]), note)
        if ctx.dd_of(_intersect(fam)) != _intersect(ctx.dd_of(x) for x in fam):
            return finish(FAIL, ctx.doc(family=[ctx.labels(x) for x in fam]), note)
    return finish(PASS, None, note)


def _homomorphism_record(check, qm):
    """The record of one homomorphism check without `seconds`, or the name of
    the library error it raised."""
    try:
        record = check(qm, instance="x").to_record()
    except Error as exc:
        return type(exc).__name__
    record.pop("seconds")
    return record


def test_check_homomorphism_keeps_the_former_records():
    # boolean_2 and boolean_3, where the law holds, boolean_2^2, where the
    # hypothesis fails, then the poisoned 0-distributive SUBSET_INSTANCES,
    # of which ex1 unpoisoned comes first and misses the hypothesis. The
    # notes lose the seeded families; where rem1.iii fails after the node
    # pairs pass, the family join law is no longer claimed.
    cases = [("boolean_2", ["*"]), ("boolean_3", ["*"]), ("boolean_2", ["*", "*"])]
    contexts = [qm_from(*case) for case in cases]
    for name in ("ex1", "chain3sq", "bool2xa", "fig5", "chain4sq", "n5xb"):
        contexts += [qm for _, qm in poisoned(*SUBSET_INSTANCES[name])]
    statuses, gated = [], 0
    for qm in contexts:
        got = _homomorphism_record(check_homomorphism, qm)
        want = _homomorphism_record(old_check_homomorphism, qm)
        if isinstance(want, dict) and want["note"]:
            want["note"] = want["note"].replace(f" and {FAMILY_SAMPLES} seeded families", "")
        if isinstance(got, dict) and got["note"] and "A*** = A* fails" in got["note"]:
            status, witness, _ = laws._c_rem1_iii(laws._Ctx(qm))
            assert (want["status"], got["status"], status) == (PASS, HYP, FAIL), qm
            assert got["witness"] == witness, qm
            gated += 1
        else:
            assert got == want, qm
        statuses.append(got if isinstance(got, str) else got["status"])
    assert statuses[:4] == [PASS, PASS, HYP, HYP]
    assert {PASS, FAIL, HYP} <= set(statuses)
    assert gated == 4


def test_family_join_law_holds_where_check_homomorphism_passes():
    # every family of up to MAX_FAMILY nodes, on every digest context of at
    # most 12 subquasimodules where the clause passes: the induction on
    # family size from the pair law and rem1.iii, checked by brute force
    checked = 0
    for label, qm in digest_contexts():
        ctx = laws._Ctx(qm, Budgets(), label)
        try:
            if len(ctx.subs) > 12 or check_homomorphism(qm, ctx=ctx).status != PASS:
                continue
        except Error:
            continue
        nodes = ctx.subs.nodes
        for k in range(1, MAX_FAMILY + 1):
            for fam in combinations(nodes, k):
                joined = ctx.dd_of(laws._union(ctx.dd_of(x) for x in fam))
                assert ctx.dd_of(ctx.close[laws._union(fam)]) == joined, (label, fam)
        checked += 1
    assert checked == 27


# -- factor pools from down-sets --------------------------------------------------

def non_ideal_kind(lattice, em):
    """None if the element subset em is an ideal, else the first property it
    lacks: the bottom, down-closure, join-closure."""
    if not em >> lattice.bottom & 1:
        return "no bottom"
    if any(lattice.down[e] & ~em for e in iter_bits(em)):
        return "not down-closed"
    if lattice.down[lattice.join_of(em)] != em:
        return "not join-closed"
    return None


def test_factor_pools_match_the_enumerated_ones():
    # the ideals are the factor subquasimodules, by enumeration; every
    # non-empty subset of the factor tells which kinds of non-ideal it has
    cfg = SearchConfig(max_lattice_size=5)
    contexts = [(spec, read_qm_file(os.path.join(SPECS, spec)))
                for spec in sorted(os.listdir(SPECS))]
    contexts += [(f"{lat.up} {factors}", canonical(lat, factors)) for n in range(1, 6)
                 for lat in search._exhaustive_lattices(n)
                 for factors in search._factor_variants(lat, cfg)]
    assert len(contexts) == 9 + 61
    kinds_seen = set()
    for label, qm in contexts:
        lattice = qm.lattice
        pools = laws._Ctx(qm).factor_subqm_pools
        for i, (factor, pool) in enumerate(zip(qm.factors, pools)):
            fqm = qm.factor_qm(i)
            ideals = {fqm.project(m, 0) for m in all_subquasimodules(fqm).nodes}
            assert pool == sorted(set(pool)) and ideals <= set(pool), (label, i)
            kinds = [non_ideal_kind(lattice, em) for em in pool if em not in ideals]
            present, sub = set(), factor.members
            while sub:
                present.add(non_ideal_kind(lattice, sub))
                sub = (sub - 1) & factor.members
            present.discard(None)
            assert sorted(kinds) == sorted(present), (label, i)
            kinds_seen.update(kinds)
    assert kinds_seen == {"no bottom", "not down-closed", "not join-closed"}


def test_product_iff_decides_both_directions(ex1_qm):
    # a product side that always passes, or never does, disagrees with the
    # factor subquasimodule verdicts on some combination of the pools
    ctx = laws._Ctx(ex1_qm)
    factor_side = lambda fqm, fmask: is_subquasimodule(fqm, fmask)[0]
    for claim in (True, False):
        status, witness, note = laws._product_iff(ctx, factor_side, lambda mask: claim)
        assert (status, note) == (FAIL, None)
        assert (witness["product"], witness["factors_pass"]) == (claim, not claim)


def test_product_clauses_walk_every_combination_on_n5_pow4():
    # 8^4 combinations of the N5 pools, with no sampled note
    qm = read_qm_file(os.path.join(SPECS, "n5.pow4.qm"))
    ctx = laws._Ctx(qm)
    assert [len(pool) for pool in ctx.factor_subqm_pools] == [8] * 4
    for clause, body in (("lem6.ii", laws._c_lem6_ii),
                         ("prop-splitting-product", laws._c_splitting_product)):
        report = laws._record(ctx, clause, body)
        assert (report.status, report.note) == (PASS, None)
