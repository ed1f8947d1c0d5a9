import gc

import pytest
from hypothesis import example, given, settings, strategies as st

from quasimodules import (
    SubQM,
    canonical,
    check_all,
    check_homomorphism,
    counterexample_search,
    is_subquasimodule,
    perp,
    principal_ideal,
    reproduce_reference,
    replay_witness,
)
from quasimodules import galois
from quasimodules.errors import NotZeroDistributive, UnknownInstance
from quasimodules.verify import FAIL, HYP, PASS, Budgets, CLAUSE_IDS, SearchConfig
from quasimodules.verify import laws
from quasimodules.verify.instances import is_boolean_shape
from quasimodules.verify.laws import covering_pairs

from conftest import qm_from


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


def test_check_all_leaves_no_reference_cycles(ex1_qm):
    # a cycle through the context would hold its 2^m companion table until
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
    # (incomplete) subquasimodule list of ex1
    expected_fail = {"ex1.subquasimodule-count", "ex1.subquasimodule-sets"}
    for name in ("ex2", "m3", "ex1", "fig5", "n5-power"):
        for report in reproduce_reference(name):
            want = FAIL if report.clause in expected_fail else PASS
            assert report.status == want, (report.clause, report.status)


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


def test_check_homomorphism_two_big_factors(fig5_qm):
    report = check_homomorphism(fig5_qm, instance="fig5 x fig5")
    assert report.status in (PASS, HYP)
    if report.status == HYP:
        assert report.witness is not None


# -- the covering pool of the pair clauses -----------------------------------
#
# The scans below are the oracle: each says whether its clause holds on a
# companion table `tab` over the given pairs of subset masks, and over all
# 4^m pairs it is the clause itself.

def all_pairs(m):
    n = 1 << m
    return [(a, b) for a in range(n) for b in range(n)]


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


@st.composite
def companion_tables(draw):
    """(tab, m, full) with m <= 6. Mostly tables built as perp(0) AND the
    singletons, the way a companion table is, with the singleton relation
    symmetrized or not and perp(0) the carrier or not, then maybe one entry
    flipped; otherwise an arbitrary table (which nearly always fails)."""
    m = draw(st.integers(1, 6))
    full = (1 << m) - 1
    if draw(st.integers(0, 4)) == 0:
        return [draw(st.integers(0, full)) for _ in range(1 << m)], m, full
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
    if draw(st.booleans()):
        tab[draw(st.integers(0, full))] ^= 1 << draw(st.integers(0, m - 1))
    return tab, m, full


# Tables the strategy rarely draws, each decided wrongly by a pool that lacks
# one kind of pair: without (a, {p}) lem4.i passes on the first, without
# (perp(a), a) rem1.iv passes on the second, without (a, perp(b)) on the third.
@example(([3, 1, 3, 0], 2, 0b11))
@example(([7, 1, 6, 0, 2, 0, 2, 4], 3, 0b111))
@example(([15, 8, 8, 8, 12, 8, 8, 8, 15, 8, 8, 8, 12, 0, 8, 8], 4, 0b1111))
@given(companion_tables())
@settings(max_examples=300, deadline=None)
def test_covering_steps_match_pair_scans(table):
    tab, m, _ = table
    pool = list(covering_pairs(tab, m))
    pairs = all_pairs(m)
    for clause, scan in SCANS.items():
        assert scan(tab, pool) == scan(tab, pairs), clause


def test_rem1_iv_needs_perp_of_empty_set_to_be_the_carrier():
    # {0} is orthogonal to itself, {1} to nothing: a symmetric singleton
    # relation on a meet table, but perp(0) = {0}, so the pair ({1}, 0) fails
    tab, m = [0b01, 0b01, 0b00, 0b00], 2
    assert scan_lem4_i(tab, all_pairs(m))
    assert not scan_rem1_iv(tab, all_pairs(m))
    assert not scan_rem1_iv(tab, covering_pairs(tab, m))


def _records(qm, monkeypatch, scans):
    """check_all records without timings; with `scans`, the pair clauses
    quantify over all 4^m pairs instead of the covering pool."""
    with monkeypatch.context() as patch:
        if scans:
            patch.setattr(laws._Ctx, "pair_pool",
                          lambda ctx: (all_pairs(ctx.m), None))
        records = [r.to_record() for r in check_all(qm, instance="x")]
    for r in records:
        r.pop("seconds")
    return records


def _flip_one_entry(monkeypatch):
    real = laws._companion_table

    def flipped(qm):
        tab = real(qm)
        tab[0b11] ^= 1 << 2
        return tab

    monkeypatch.setattr(laws, "_companion_table", flipped)


def _witness_pair(qm, witness):
    """The two subset masks a pair-clause witness names, from their labels."""
    position = {tuple(qm.vector_labels(p)): p for p in range(qm.size)}
    keys = ("smaller", "larger") if "smaller" in witness else ("first", "second")
    return tuple(sum(1 << position[tuple(v)] for v in witness[k]) for k in keys)


@pytest.mark.parametrize("case", ["ex1", "m3", "ex1-flipped"])
def test_covering_steps_keep_pair_scan_records(case, ex1_qm, m3_qm, monkeypatch):
    qm = m3_qm if case == "m3" else ex1_qm
    if case == "ex1-flipped":
        _flip_one_entry(monkeypatch)
    new = _records(qm, monkeypatch, scans=False)
    old = _records(qm, monkeypatch, scans=True)
    statuses = {r["clause"]: r["status"] for r in new}
    if case != "ex1-flipped":
        assert new == old
        assert all(statuses[c] == PASS for c in PAIR_CLAUSES)
        if case == "m3":
            assert statuses["prop2"] == HYP
        return
    # a failing pair clause may name another violating pair than the scan
    assert [r["status"] for r in new] == [r["status"] for r in old]
    failed = [c for c in PAIR_CLAUSES if statuses[c] == FAIL]
    assert failed and all(r["witness"] for r in new if r["status"] == FAIL)
    tab = laws._companion_table(qm)
    for r, o in zip(new, old):
        if r["clause"] in failed:
            assert not SCANS[r["clause"]](tab, [_witness_pair(qm, r["witness"])])
            r, o = dict(r, witness=None), dict(o, witness=None)
        assert r == o
