import pytest

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
from quasimodules.verify.instances import is_boolean_shape

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
