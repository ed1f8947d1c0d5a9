"""Job runners for the three workloads and the oracle that checks their output.

Paths are relative to the repository root, which is the working directory
of every job. Library jobs call ``quasimodules`` in this process through
module attributes, so a traced run sees every call; CLI jobs run the
``quasimod`` entry point, either as a fresh interpreter (the timed run) or
through ``quasimodules.cli.main`` in this process (the traced run).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

# A job that runs longer than this counts as failed (budget exceeded).
JOB_BUDGET_S = 60

# What the `quasimod` console script runs.
CLI_PROGRAM = "import sys; from quasimodules.cli import main; sys.exit(main())"
REPORT_FILE = "quasimod-report.jsonl"

_FAIL_LINE = re.compile(r"^(\S+)\s+fail(?:\s|$)")


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    """Environment for child interpreters: the library from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class JobBudgetExceeded(Exception):
    """A job ran past JOB_BUDGET_S."""


@contextmanager
def budget(seconds=JOB_BUDGET_S):
    """Interrupt the enclosed in-process job once it exceeds its budget."""
    def expire(signum, frame):
        raise JobBudgetExceeded(f"job exceeded its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cli_argv(job, seed):
    """The job's argv; the search jobs are the only ones that take the seed."""
    argv = list(job["argv"])
    if "search" in job:
        argv += ["--seed", str(seed)]
    return argv


def _digest(masks):
    return hashlib.sha256(",".join(map(str, sorted(masks))).encode()).hexdigest()


# -- library jobs ---------------------------------------------------------------

def run_library_job(job):
    """Run one subs-ladder or closed-products job; returns its output summary.

    Each call reads the spec and builds a fresh CanonicalQM, so operation
    tables and the principal_perp cache are rebuilt every time, as they are
    for every `quasimod` invocation.
    """
    from quasimodules import galois, quasimodule, subquasi

    qm = quasimodule.read_qm_file(job["spec"])
    if job["kind"] == "subs":
        # what `quasimod qm closed` and `quasimod qm splitting` compute
        subs = subquasi.all_subquasimodules(qm)
        closed = galois.closed_subquasimodules(qm)
        splitting = [m for m in subs.nodes
                     if galois.is_splitting(qm, subquasi.SubQM(qm, m))]
        return {"nodes": len(subs), "closed": len(closed), "splitting": len(splitting),
                "nodes_sha256": _digest(subs.nodes),
                "closed_sha256": _digest(closed.nodes),
                "splitting_sha256": _digest(splitting)}
    closed = galois.closed_subquasimodules(qm)
    iso = galois.closed_lattice_iso(qm)
    splitting = [m for m in closed.nodes
                 if galois.is_splitting(qm, subquasi.SubQM(qm, m))]
    return {"closed": len(closed), "is_isomorphism": iso.is_isomorphism,
            "splitting": len(splitting), "closed_sha256": _digest(closed.nodes)}


# -- CLI jobs -------------------------------------------------------------------

def run_cli_subprocess(job, seed):
    """Run the job's argv as `quasimod` in a fresh interpreter: (exit, stdout)."""
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_PROGRAM] + cli_argv(job, seed),
                              cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=JOB_BUDGET_S)
    except subprocess.TimeoutExpired:
        raise JobBudgetExceeded(f"job exceeded its {JOB_BUDGET_S} s budget") from None
    return proc.returncode, proc.stdout


def run_cli_inprocess(job, seed):
    """Run the job's argv through quasimodules.cli.main here: (exit, stdout)."""
    from quasimodules import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(cli_argv(job, seed))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def read_report(job):
    """Records the search job just wrote to its report file, else None."""
    if "search" not in job:
        return None
    with open(os.path.join(ROOT, REPORT_FILE), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cli_output(code, stdout):
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout), "stdout": stdout}


# -- oracle -----------------------------------------------------------------------

def check(job, output, expected, seed):
    """Problems with one job output; an empty list means the output is right.

    Library outputs must equal the frozen ones (they do not depend on the
    seed). CLI outputs must reproduce the frozen exit code and stdout digest,
    except that a search job's stdout is only frozen at seed 0; at other
    seeds the properties that hold for every seed are checked instead.
    """
    want = expected.get(job["id"])
    if want is None:
        return [f"no expected output frozen for job {job['id']}"]
    if job["kind"] != "cli":
        return [f"{k}: got {output.get(k)!r}, expected {v!r}"
                for k, v in want.items() if output.get(k) != v]
    problems = []
    if output["exit"] != want["exit"]:
        problems.append(f"exit code {output['exit']}, expected {want['exit']}")
    if ("search" not in job or seed == 0) and output["stdout_sha256"] != want["stdout_sha256"]:
        problems.append("stdout differs from the frozen output")
    problems.extend(_cli_properties(job, output))
    return problems


def _cli_properties(job, output):
    text = output["stdout"].decode("utf-8", "replace")
    failing = {m.group(1) for m in map(_FAIL_LINE.match, text.splitlines()) if m}
    kind = job.get("search")
    if kind == "hunt":
        return _replay_findings(output["report"])
    problems = []
    unexpected = failing - set(job.get("allowed_fail", ()))
    if unexpected:
        problems.append(f"unexpected fail status: {sorted(unexpected)}")
    if kind == "soundness" and "no findings" not in text.splitlines():
        problems.append("soundness search reported findings")
    return problems


def _replay_findings(records):
    from quasimodules.verify import TheoremReport, replay_witness

    if not records:
        return ["hunt found nothing to replay"]
    bad = 0
    for rec in records:
        report = TheoremReport(rec["clause"], rec["status"], rec["instance"],
                               rec["witness"], rec["note"], rec["seconds"])
        if not replay_witness(report):
            bad += 1
    return [f"{bad} of {len(records)} findings fail replay_witness"] if bad else []
