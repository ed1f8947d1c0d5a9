"""The benchmark's jobs reproduce their frozen output.

Each CLI job of perfbench/workloads.json runs at seed 0 as a child
interpreter, and its exit code and stdout sha256 must equal those in
perfbench/expected.json. The child runs in a temporary directory that holds
a `perfbench` link to the repository's, so the job paths resolve and report
files land outside the checkout. The `qm verify` jobs and `search.max4` run
a second time under `python -O`. The library jobs (subs-ladder and
closed-products) run in this process through `run_library_job` of
perfbench/jobs.py, and its `check` compares them with expected.json; that
module is loaded by path and only read.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
CLI_PROGRAM = "import sys; from quasimodules.cli import main; sys.exit(main())"


def load(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return json.load(fh)


JOBS = [job for workload in load("workloads.json").values() for job in workload["jobs"]]
CLI_JOBS = [job for job in JOBS if job["kind"] == "cli"]
LIBRARY_JOBS = [job for job in JOBS if job["kind"] != "cli"]


# The law suite's jobs again under `python -O`, where an `assert` in the
# library would vanish: the output must not depend on one.
OPTIMIZED_JOBS = [job for job in CLI_JOBS
                  if job["id"].startswith("qm-verify.") or job["id"] == "search.max4"]


def run_job(job, tmp_path, *flags):
    os.symlink(PERFBENCH, tmp_path / "perfbench")
    # the search jobs are the only ones that take the seed
    argv = job["argv"] + (["--seed", "0"] if "search" in job else [])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-c", CLI_PROGRAM, *argv], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    want = load("expected.json")[job["id"]]
    assert proc.returncode == want["exit"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == want["stdout_sha256"]


@pytest.mark.parametrize("job", CLI_JOBS, ids=[job["id"] for job in CLI_JOBS])
def test_cli_job_reproduces_frozen_stdout(job, tmp_path):
    run_job(job, tmp_path)


@pytest.mark.parametrize("job", OPTIMIZED_JOBS, ids=[job["id"] for job in OPTIMIZED_JOBS])
def test_cli_job_reproduces_frozen_stdout_under_python_O(job, tmp_path):
    run_job(job, tmp_path, "-O")


def load_jobs_module():
    spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                  os.path.join(PERFBENCH, "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("job", LIBRARY_JOBS, ids=[job["id"] for job in LIBRARY_JOBS])
def test_library_job_reproduces_frozen_output(job):
    # the job's spec path is relative to the repository root
    jobs = load_jobs_module()
    output = jobs.run_library_job(dict(job, spec=os.path.join(ROOT, job["spec"])))
    assert jobs.check(job, output, load("expected.json"), 0) == []
