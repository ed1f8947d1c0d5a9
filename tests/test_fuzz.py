"""Random lattice and quasimodule texts, parsed and fed to the CLI: each ends
in a result, a typed error (a ParseError names its line) or exit code 2,
never in an untyped exception."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from quasimodules.cli import main
from quasimodules.errors import Error, ParseError
from quasimodules.lattice import builtin, format_lattice, parse_lattice
from quasimodules.quasimodule import parse_qm

WORDS = ("0", "1", "a", "b", "c", "ab", "<=", "elements:", "lattice:", "factor:",
         "principal", "set", "#")
token = st.one_of(st.sampled_from(WORDS), st.text(alphabet="ab01 <=:#\t\x00é", max_size=6))

lattice_line = st.one_of(
    st.lists(token, max_size=5).map(lambda ts: "elements: " + " ".join(ts)),
    st.tuples(token, st.sampled_from(("<=", "<", ">=")), token).map(" ".join),
    st.lists(token, max_size=5).map(" ".join),
    st.sampled_from(("", "# a comment", "   ", "\r")),
)

# lattice references resolve against the directory of the quasimodule file;
# "n5.lat", "bad.lat" and (in the CLI test) "fuzz.lat" are written there
REFS = ("builtin:n5", "builtin:m3", "builtin:chain_3", "builtin:boolean_2",
        "builtin:chain_0", "builtin:boolean_9", "builtin:nope", "builtin:", "",
        "n5.lat", "bad.lat", "fuzz.lat", "missing.lat", ".", "a\x00b")
qm_line = st.one_of(
    st.sampled_from(REFS).map(lambda ref: "lattice: " + ref),
    st.tuples(st.sampled_from(("principal", "set", "ideal", "")),
              st.lists(token, max_size=3)).map(lambda t: " ".join(("factor:", t[0], *t[1]))),
    lattice_line,
)


def text_of(line):
    return st.lists(line, max_size=8).map("\n".join)


def write_lattices(directory):
    (directory / "n5.lat").write_text(format_lattice(builtin("n5")), encoding="utf-8")
    (directory / "bad.lat").write_text("elements: a b\na < b\n", encoding="utf-8")


def assert_typed(exc, text, source):
    """A ParseError of this text names a line of it, unless it is about the
    text as a whole (a missing header or line)."""
    if isinstance(exc, ParseError) and exc.source == source:
        if exc.line is None:
            assert "missing" in str(exc) or "required" in str(exc), exc
        else:
            assert 1 <= exc.line <= len(text.splitlines()), exc


@given(text_of(lattice_line))
@settings(max_examples=300, deadline=None)
def test_parse_lattice_gives_a_lattice_or_a_typed_error(text):
    try:
        parse_lattice(text, source="fuzz.lat")
    except Error as exc:
        assert_typed(exc, text, "fuzz.lat")


def test_parse_qm_gives_a_quasimodule_or_a_typed_error(tmp_path):
    write_lattices(tmp_path)

    @given(text_of(qm_line))
    @example("lattice: missing.lat")
    @example("lattice: .")
    @settings(max_examples=300, deadline=None)
    def check(text):
        try:
            parse_qm(text, base_dir=str(tmp_path), source="fuzz.qm")
        except Error as exc:
            assert_typed(exc, text, "fuzz.qm")

    check()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_cli_on_random_files_exits_0_or_2(tmp_path):
    write_lattices(tmp_path)
    lat, qm = tmp_path / "fuzz.lat", tmp_path / "fuzz.qm"

    @given(text_of(lattice_line), text_of(qm_line), st.binary(max_size=12),
           st.sampled_from(("text", "bytes")))
    @example("", "lattice: a\x00b\nfactor: principal 1", b"", "text")
    @settings(max_examples=150, deadline=None)
    def check(lat_text, qm_text, raw, kind):
        if kind == "text":
            lat.write_text(lat_text, encoding="utf-8")
            qm.write_text(qm_text, encoding="utf-8")
        else:
            lat.write_bytes(lat_text.encode("utf-8") + raw)
            qm.write_bytes(raw + qm_text.encode("utf-8"))
        for argv in (["lattice", "check", str(lat)],
                     ["qm", "subs", str(qm), "--budget", "300"]):
            code, err = run_cli(argv)
            assert code in (0, 2), (argv, code)
            assert code == 0 or err.startswith("error: "), err

    check()
