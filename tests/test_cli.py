import json
import os

import pytest

from quasimodules.cli import main
from quasimodules.lattice import builtin, format_lattice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def files(tmp_path):
    (tmp_path / "n5.lat").write_text(format_lattice(builtin("n5")))
    (tmp_path / "m3.lat").write_text(format_lattice(builtin("m3")))
    (tmp_path / "ex1.qm").write_text(
        "lattice: n5.lat\nfactor: principal 1\nfactor: principal a\n")
    (tmp_path / "m3.qm").write_text(
        "lattice: m3.lat\nfactor: principal 1\nfactor: principal a\n")
    (tmp_path / "trivial.qm").write_text(
        "lattice: n5.lat\nfactor: principal 0\n")
    (tmp_path / "bad.lat").write_text("elements: a b\na < b\n")
    return tmp_path


def dot_counts(text):
    lines = [l.strip() for l in text.splitlines()]
    edges = sum(1 for l in lines if "->" in l)
    nodes = sum(1 for l in lines
                if l.endswith('";') and "->" not in l and "rankdir" not in l)
    return nodes, edges


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_lattice_check_n5(files, capsys):
    code, out = run(capsys, "lattice", "check", files / "n5.lat")
    assert code == 0
    assert "0-distributive: yes" in out
    assert "modular: no, witness (a,b,c)" in out


def test_lattice_check_m3(files, capsys):
    code, out = run(capsys, "lattice", "check", files / "m3.lat")
    assert code == 0
    assert "0-distributive: no, witness (a,b,c)" in out
    assert "modular: yes" in out


def test_lattice_check_builtin_chain(capsys):
    code, out = run(capsys, "lattice", "check", "builtin:chain_3")
    assert code == 0
    assert out.count(": yes") == 3


def test_parse_error_exit_code(files, capsys):
    code = main(["lattice", "check", str(files / "bad.lat")])
    assert code == 2
    assert "bad.lat:2" in capsys.readouterr().err


def test_relative_paths_are_named_as_given(files, capsys, monkeypatch):
    # a lattice path from the command line is read as given, from the
    # working directory; one inside a spec file from the spec's directory
    monkeypatch.chdir(files)
    assert main(["lattice", "check", "bad.lat"]) == 2
    assert capsys.readouterr().err == "error: bad.lat:2: expected 'X <= Y', got 'a < b'\n"
    (files / "specs").mkdir()
    (files / "specs" / "five.lat").write_text(format_lattice(builtin("n5")))
    (files / "specs" / "bad.lat").write_text("elements: a b\na < b\n")
    (files / "specs" / "ex1.qm").write_text("lattice: five.lat\nfactor: principal a\n")
    (files / "specs" / "bad.qm").write_text("lattice: bad.lat\nfactor: principal b\n")
    assert main(["qm", "subs", "specs/ex1.qm"]) == 0
    capsys.readouterr()
    assert main(["qm", "subs", "specs/bad.qm"]) == 2
    bad = files / "specs" / "bad.lat"
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")


@pytest.mark.parametrize("argv, name", [
    (["qm", "closed"], "bad.qm"),
    (["lattice", "check"], "bad.lat"),
])
def test_undecodable_file_is_a_parse_error(argv, name, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfelattice: n5.lat\n")
    code = main(argv + [str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")


def test_qm_subs(files, capsys):
    code, out = run(capsys, "qm", "subs", files / "ex1.qm")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("P")]
    assert len(rows) == 21
    assert rows[0] == "P1\t{(0,0)}"
    # deterministic output
    code2, out2 = run(capsys, "qm", "subs", files / "ex1.qm")
    assert out2 == out


def test_qm_subs_trivial(files, capsys):
    code, out = run(capsys, "qm", "subs", files / "trivial.qm")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("P")] == ["P1\t{(0)}"]


def test_qm_closed_and_splitting_agree_on_ex1(files, capsys):
    _, closed = run(capsys, "qm", "closed", files / "ex1.qm")
    _, splitting = run(capsys, "qm", "splitting", files / "ex1.qm")
    closed_rows = [l for l in closed.splitlines() if l.startswith("P")]
    assert len(closed_rows) == 8
    assert ([l for l in splitting.splitlines() if l.startswith("P")]
            == closed_rows)


def test_qm_perp_table_closed_only(files, capsys):
    code, out = run(capsys, "qm", "perp-table", files / "ex1.qm", "--closed-only")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("P ")
    assert lines[1].startswith("P^perp")
    assert lines[2].startswith("P^perpperp")
    # closed rows are fixed by the involution: row three equals row one
    assert lines[0].split("|")[1:] == lines[2].split("|")[1:]


def test_qm_perp_table_structured(files, capsys):
    code, out = run(capsys, "qm", "perp-table", files / "ex1.qm",
                    "--format", "structured")
    records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert len(records) == 21
    assert all(set(r) == {"P", "perp", "perpperp"} for r in records)


def test_qm_bases(files, capsys):
    code, out = run(capsys, "qm", "bases", files / "ex1.qm", "--max-basis-size", "3")
    assert code == 0
    assert "{(0,a) (1,0)} orthogonal=yes" in out
    assert "{(0,a) (b,0) (c,0)} orthogonal=yes" in out


def test_qm_verify_exit_codes(files, capsys):
    code, out = run(capsys, "qm", "verify", files / "ex1.qm")
    assert code == 0
    assert "prop2" in out
    code, out = run(capsys, "qm", "verify", files / "m3.qm")
    assert code == 0  # hypothesis-not-met is not a failure
    assert "hypothesis-not-met" in out


def test_export_dot_lattice(files, capsys):
    code, out = run(capsys, "export", "dot", files / "n5.lat", "--which", "lattice")
    assert code == 0
    nodes, edges = dot_counts(out)
    assert nodes == 5 and edges == 5
    code2, out2 = run(capsys, "export", "dot", files / "n5.lat", "--which", "lattice")
    assert out2 == out


def test_export_dot_lattice_reports_the_lattice_parse_error(files, capsys):
    # a file that opens with an `elements:` header is a lattice file: its
    # error is the lattice parser's, not the quasimodule parser's
    bad = files / "typo.lat"
    bad.write_text("# a typo on line 3\nelements: 0 a 1\na <= zz\n0 <= a\n")
    code = main(["export", "dot", str(bad), "--which", "lattice"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {bad}:3: unknown element label 'zz'\n"
    # a quasimodule spec still goes to the quasimodule parser
    code = main(["export", "dot", str(files / "ex1.qm"), "--which", "lattice"])
    assert code == 0 and capsys.readouterr().out.count("->") == 5
    (files / "typo.qm").write_text("lattice: n5.lat\nfactor: principal zz\n")
    code = main(["export", "dot", str(files / "typo.qm"), "--which", "lattice"])
    assert code == 2 and "typo.qm:2" in capsys.readouterr().err


def test_export_dot_closed(files, capsys, tmp_path):
    code, out = run(capsys, "export", "dot", files / "ex1.qm", "--which", "closed")
    assert code == 0
    nodes, edges = dot_counts(out)
    assert nodes == 8 and edges == 12
    target = tmp_path / "closed.dot"
    code = main(["export", "dot", str(files / "ex1.qm"), "--which", "closed",
                 "-o", str(target)])
    capsys.readouterr()
    assert code == 0 and target.read_text().splitlines()[0] == "digraph closed {"


def test_export_dot_trivial(files, capsys):
    code, out = run(capsys, "export", "dot", files / "trivial.qm", "--which", "subs")
    assert code == 0
    assert "->" not in out


def test_verify_instance_cli(files, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--instance", "m3")
    assert code == 0
    assert (tmp_path / "quasimod-report.jsonl").exists()
    records = [json.loads(l)
               for l in (tmp_path / "quasimod-report.jsonl").read_text().splitlines()]
    assert all(r["status"] == "pass" for r in records)
    assert {"clause", "status", "instance", "witness", "note", "seconds"} == set(records[0])


def test_verify_instance_ex1_reports_published_gap(files, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--instance", "ex1", "--no-report")
    assert code == 1  # the published subquasimodule list is incomplete
    assert "ex1.subquasimodule-count" in out
    assert "ex1.companion-table" in out


def test_verify_search_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--search", "--max-size", "5", "--seed", "1",
                    "--drop", "0-distributive", "--no-report")
    assert code == 0
    assert "prop2" in out
    code, out = run(capsys, "verify", "--search", "--max-size", "3", "--seed", "1",
                    "--no-report")
    assert code == 0
    assert "no findings" in out


def test_repeated_drop_runs_one_hunt(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = {}
    for drops in (["closed-is-splitting"], ["closed-is-splitting"] * 2,
                  ["closed-is-splitting", "0-distributive", "closed-is-splitting"]):
        argv = ["verify", "--search", "--max-size", "5"]
        for hyp in drops:
            argv += ["--drop", hyp]
        code, out = run(capsys, *argv)
        assert code == 0
        records = [json.loads(l) for l in
                   (tmp_path / "quasimod-report.jsonl").read_text().splitlines()]
        runs[len(drops)] = out, [r["clause"] for r in records]
    assert runs[1][1] == ["closed-not-splitting"]
    assert runs[2] == runs[1]
    assert runs[3][1] == ["closed-not-splitting", "prop2"]


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit) as err:
        main(["qm", "subs", str(files / "ex1.qm"), "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "--search", "--drop", "nope"], "invalid choice: 'nope'"),
    (["qm", "bases", "builtin:n5", "--max-basis-size", "-1"], "-1 is negative"),
    (["verify", "--search", "--max-size", "8"], "invalid choice: 8"),
    (["verify", "--search", "--max-factors", "3"], "invalid choice: 3"),
    (["verify", "--search", "--max-factors", "0"], "invalid choice: 0"),
    (["qm", "verify", "builtin:n5", "--budget", "-5"], "-5 is negative"),
    (["qm", "subs", "builtin:n5", "--budget", "-5"], "-5 is negative"),
    (["export", "dot", "builtin:n5", "--which", "subs", "--budget", "-1"],
     "-1 is negative"),
])
def test_out_of_range_arguments_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(errors) == 1 and message in errors[0]


def test_qm_verify_honours_budget(capsys):
    spec = os.path.join(ROOT, "perfbench", "specs", "ex1.qm")
    code, out = run(capsys, "qm", "verify", spec, "--budget", "5")
    assert code == 0
    over = [l.split()[0] for l in out.splitlines() if "budget-exceeded" in l]
    assert over == ["lem6.i", "splitting-subset-closed", "prop-splitting-perp",
                    "homomorphism"]


@pytest.mark.parametrize("budget", ["200000", "5"])
def test_qm_verify_enumerates_the_product_once(budget, capsys, monkeypatch):
    # check_all and check_homomorphism share one context, so the product is
    # enumerated once, or run to the node budget once
    from quasimodules.verify import laws

    calls = []
    enumerate_all = laws.all_subquasimodules

    def counting(qm, **kwargs):
        if len(qm.factors) > 1:
            calls.append(qm)
        return enumerate_all(qm, **kwargs)

    monkeypatch.setattr(laws, "all_subquasimodules", counting)
    spec = os.path.join(ROOT, "perfbench", "specs", "ex1.qm")
    code, out = run(capsys, "qm", "verify", spec, "--budget", budget)
    assert code == 0
    assert len(calls) == 1
    assert ("budget-exceeded" in out) == (budget == "5")


def test_mutually_exclusive_verify_modes(capsys):
    code = main(["verify", "--instance", "m3", "--search"])
    assert code == 2


def test_budget_exceeded_has_guidance(files, capsys):
    code = main(["qm", "subs", str(files / "ex1.qm"), "--budget", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "raise --budget" in err


def test_qm_accepts_builtin_reference(capsys):
    code, out = run(capsys, "qm", "subs", "builtin:n5")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("P")]
    assert len(rows) == 5  # the five ideals of n5


def test_verify_all_instances_default(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--no-report")
    assert code == 1  # the ex1 published-list divergence
    for prefix in ("ex2.", "m3.", "ex1.", "fig5.", "n5-power."):
        assert prefix in out


def test_qm_perp_table_falls_back_to_sets(files, capsys):
    # companions that are not subquasimodules print as explicit sets
    code, out = run(capsys, "qm", "perp-table", files / "m3.qm")
    assert code == 0
    assert "{(0,0) (b,0) (c,0)}" in out
