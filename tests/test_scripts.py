"""Smoke test: both scripts under scripts/ run end to end as subprocesses."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, code, line", [
    # the published 20-set list of N5 x [0,a] misses one subquasimodule
    ("reproduce_reference_tables.py", 1,
     "2 golden check(s) diverge from the published data; see notes on the "
     "published subquasimodule list of N5 x [0,a]."),
    ("hunt_counterexamples.py", 0, "23 finding(s), all replayed."),
])
def test_script_runs(name, code, line):
    proc = run_script(name)
    assert proc.returncode == code, proc.stderr
    assert line in proc.stdout.splitlines()
