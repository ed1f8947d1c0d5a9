"""Smoke test: both scripts under scripts/ run end to end as subprocesses."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
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


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=("plain", "optimized"))
def test_hunt_fails_when_a_finding_does_not_replay(flags):
    # replay_witness is stubbed to reject every finding; the script must say
    # so and exit 1, also under -O, where an assert would be compiled out
    script = os.path.join(ROOT, "scripts", "hunt_counterexamples.py")
    program = ("import runpy, sys, quasimodules\n"
               "quasimodules.replay_witness = lambda finding: False\n"
               f"sys.argv = [{script!r}, '--max-size', '5', '--drop', '0-distributive']\n"
               f"runpy.run_path({script!r}, run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "does not replay" in proc.stderr
    assert "all replayed" not in proc.stdout


@pytest.mark.parametrize("size", ["0", "8"])
def test_hunt_rejects_max_size_outside_exhaustive_range(size):
    # 0 would check nothing and report zero findings; 8 has no lattice table
    proc = run_script("hunt_counterexamples.py", "--max-size", size, "--soundness")
    assert proc.returncode == 2
    assert f"invalid choice: {size}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
