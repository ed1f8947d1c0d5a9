#!/usr/bin/env python3
"""Benchmark for the quasimodules library and its `quasimod` command line.

Run from the repository root (no build step; the library is imported from
``src/``)::

    python3 perfbench/run.py --workload subs-ladder --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Workloads (defined in perfbench/workloads.json, documented in
perfbench/METRICS.md):

- ``subs-ladder``: full subquasimodule enumeration, closed and splitting
  filters on three carriers of 25-64 vectors.
- ``closed-products``: closed lattices, their product isomorphism and the
  splitting test on 256-625 vector products, both sides of the table limit.
- ``verify-cli``: 11 sequential ``quasimod`` invocations (law checks,
  soundness search, hunts, tables and exports on small inputs).

Load is a closed loop from one client: jobs run one after another in one
process (or one child at a time), no threads. A pass runs a workload's fixed
job list once; passes repeat until ``--seconds`` would be exceeded. Only the
search jobs of ``verify-cli`` take ``--seed``; the other two workloads are
deterministic and ignore it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``solve_s``, ``peak_rss_mb``); with ``--trace 1`` it reports
the per-layer metrics from a traced run (see tracer.py). Every job output is
checked against perfbench/expected.json; ``failed`` counts jobs that raised,
ran past their budget or gave wrong output. Raw samples, the environment
stamp and (traced runs) the span file go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from jobs import ROOT, SRC  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("subs-ladder", "closed-products", "verify-cli")

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 7
SETUP_PROGRAM = """\
import json, sys, time
t = time.perf_counter()
import quasimodules.cli
t = time.perf_counter() - t
with open("perfbench/workloads.json", encoding="utf-8") as fh:
    workload = json.load(fh)[sys.argv[1]]
for job in workload["jobs"]:
    if "spec" in job:
        with open(job["spec"], encoding="utf-8") as fh:
            fh.read()
print(t)
"""


def _median(values):
    """Median; counts stay whole numbers (they repeat exactly anyway)."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _child(argv):
    """Run a child interpreter to completion; (wall seconds, stdout)."""
    t = perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=jobs.child_env(),
                          capture_output=True, timeout=60, check=True)
    return perf_counter() - t, proc.stdout


def measure_setup(workload, with_reference):
    """Median wall time of fresh interpreters importing the CLI and reading specs."""
    _child(["-c", SETUP_PROGRAM, workload])  # warm the bytecode cache
    walls, imports, bare = [], [], []
    for _ in range(SETUP_REPEATS):
        wall, out = _child(["-c", SETUP_PROGRAM, workload])
        walls.append(wall)
        imports.append(float(out))
        if with_reference:
            bare.append(_child(["-c", "pass"])[0])
    return {"setup_s": _median(walls), "import_s": _median(imports),
            "python_start_s": _median(bare), "samples": walls}


# -- passes ------------------------------------------------------------------------

class Pass:
    """One run of a workload's job list; keeps job times and outputs."""

    def __init__(self, workload_jobs, seed, in_process, recorder=None):
        self.job_s = {}
        self.outputs = {}
        self.errors = {}
        self.job_spans = {}
        for job in workload_jobs:
            jid = job["id"]
            gc.collect()
            span = recorder.open("job:" + jid) if recorder else None
            t = perf_counter()
            try:
                output = self._run(job, seed, in_process)
            except Exception as exc:  # the job failed; the run carries on
                self.errors[jid] = f"{type(exc).__name__}: {exc}"
            finally:
                self.job_s[jid] = perf_counter() - t
                if recorder:
                    recorder.close(span)
                    self.job_spans[jid] = span
            if jid in self.errors:
                continue
            try:
                if job["kind"] == "cli":
                    output["report"] = jobs.read_report(job)
            except (OSError, ValueError) as exc:
                self.errors[jid] = f"unreadable report file: {exc}"
                continue
            self.outputs[jid] = output
        self.seconds = sum(self.job_s.values())

    @staticmethod
    def _run(job, seed, in_process):
        if job["kind"] != "cli":
            with jobs.budget():
                return jobs.run_library_job(job)
        if in_process:
            with jobs.budget():
                return jobs.cli_output(*jobs.run_cli_inprocess(job, seed))
        return jobs.cli_output(*jobs.run_cli_subprocess(job, seed))

    def stdout_bytes(self):
        return sum(o.get("stdout_bytes", 0) for o in self.outputs.values())


def repeat_passes(seconds, make_pass, per_round=1):
    """Run rounds of passes until the next round would end after `seconds`.

    At least one round runs. make_pass gets the pass number.
    """
    passes = []
    t0 = perf_counter()
    while True:
        for _ in range(per_round):
            passes.append(make_pass(len(passes)))
        last_round = sum(p.seconds for p in passes[-per_round:])
        if perf_counter() - t0 + last_round > seconds:
            return passes


def check_passes(workload_jobs, passes, seed):
    """(attempted, failed, problems) over every job of every pass."""
    expected = jobs.load_expected()
    attempted = failed = 0
    problems = []
    verdicts = {}
    for p in passes:
        for job in workload_jobs:
            attempted += 1
            jid = job["id"]
            if jid in p.errors:
                failed += 1
                problems.append(f"{jid}: {p.errors[jid]}")
                continue
            output = p.outputs[jid]
            key = (jid, json.dumps({k: v for k, v in output.items()
                                    if k not in ("stdout", "report")}, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = jobs.check(job, output, expected, seed)
            if verdicts[key]:
                failed += 1
                problems.extend(f"{jid}: {msg}" for msg in verdicts[key])
    return attempted, failed, sorted(set(problems))


# -- the two kinds of run ------------------------------------------------------------

def timed_run(workload, seed, seconds):
    workload_jobs = jobs.load_workloads()[workload]["jobs"]
    setup = measure_setup(workload, with_reference=False)
    in_process = workload != "verify-cli"
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_kb = []

    def make_pass(k):
        p = Pass(workload_jobs, seed, in_process)
        # Later passes reuse a heap the first one grew, so their high-water
        # mark depends on how many passes fit; one pass is one user call.
        if k == 0:
            peak_kb.append(resource.getrusage(who).ru_maxrss)
        return p

    passes = repeat_passes(seconds, make_pass)
    peak_mb = peak_kb[0] / 1024
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "solve_s": (_median([p.seconds for p in passes]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    samples = {"setup_s": setup["samples"], "solve_s": [p.seconds for p in passes],
               "job_s": [p.job_s for p in passes]}
    return workload_jobs, passes, metrics, samples


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced in-process passes; per-layer metrics.

    Every pass, verify-cli included, runs in this process, so the traced
    and untraced pass times differ only by the recorder; their difference
    is reported as trace.overhead_s.
    """
    from tracer import Recorder

    workload_jobs = jobs.load_workloads()[workload]["jobs"]
    setup = measure_setup(workload, with_reference=True)
    rec = Recorder()
    layers = []

    def make_pass(k):
        if k % 2 == 0:
            return Pass(workload_jobs, seed, in_process=True)
        rec.install()
        lo = len(rec.start)
        try:
            p = Pass(workload_jobs, seed, in_process=True, recorder=rec)
        finally:
            rec.uninstall()
        layer = rec.pass_metrics(lo)
        for job in workload_jobs:
            if job["kind"] == "subs" and job["id"] in p.job_spans:
                span = p.job_spans[job["id"]]
                layer[f"job.{job['id']}.close_mask_calls"] = rec.calls_under(
                    span, "close_mask")[0]
                layer[f"job.{job['id']}.nodes"] = rec.calls_under(
                    span, "all_subquasimodules")[1]
        layer["cli.stdout_bytes"] = p.stdout_bytes()
        layer["trace.spans"] = len(rec.start) - lo
        layers.append(layer)
        return p

    passes = repeat_passes(seconds, make_pass, per_round=2)
    untraced = passes[0::2]
    traced = passes[1::2]
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"spans-{workload}.tsv"))

    metrics = {}
    for name in layers[0]:
        metrics[name] = _median([layer[name] for layer in layers])
    for job in workload_jobs:
        metrics[f"job.{job['id']}_s"] = _median([p.job_s[job["id"]] for p in untraced])
    metrics["cli.python_start_s"] = setup["python_start_s"]
    metrics["cli.import_s"] = setup["import_s"]
    metrics["trace.overhead_s"] = (_median([p.seconds for p in traced])
                                   - _median([p.seconds for p in untraced]))
    samples = {"untraced_s": [p.seconds for p in untraced],
               "traced_s": [p.seconds for p in traced]}
    return workload_jobs, passes, metrics, samples


# -- metric names ----------------------------------------------------------------------

def per_layer_names():
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    from tracer import CALLS, SELF_TIME, VALUES

    workloads = jobs.load_workloads()
    units = {name: "s" for name in SELF_TIME}
    units.update({name: "count" for name in list(CALLS) + list(VALUES)})
    units.update({"subquasi.close_yield": "ratio", "verify.search_instances": "count",
                  "cli.python_start_s": "s", "cli.import_s": "s",
                  "cli.stdout_bytes": "bytes",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    for name in WORKLOADS:
        for job in workloads[name]["jobs"]:
            units[f"job.{job['id']}_s"] = "s"
            if job["kind"] == "subs":
                units[f"job.{job['id']}.close_mask_calls"] = "count"
                units[f"job.{job['id']}.nodes"] = "count"
    return dict(sorted(units.items()))


# -- environment stamp ------------------------------------------------------------------

def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    """Digest of the library sources, which identifies the code without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "quasimodules")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": _commit(), "source_sha256": _source_sha256(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg()}


# -- entry points ----------------------------------------------------------------------------

def run_workload(args):
    import quasimodules.cli  # noqa: F401  (loaded before timing starts)

    env = environment()
    run = traced_run if args.trace else timed_run
    workload_jobs, passes, values, samples = run(args.workload, args.seed, args.seconds)
    attempted, failed, problems = check_passes(workload_jobs, passes, args.seed)
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        units = per_layer_names()
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(passes), "environment": env,
              "samples": samples, "problems": problems, "result": result}
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in problems:
        print(f"# problem: {msg}")
    if not args.trace:
        print(f"# {args.workload}: solve_s median of {len(passes)} passes, "
              f"setup_s median of {SETUP_REPEATS} starts, "
              f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in its own child process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = entry
        if not args.trace:
            cells = "  ".join(f"{m}={e['value']:.4f} {e['unit']}"
                              for m, e in result["metrics"].items())
            frac = result["failed"] / result["attempted"]
            print(f"{name:16s} {cells}  failed_frac={frac:.4f} "
                  f"({result['failed']}/{result['attempted']})")
    print(json.dumps(totals, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quasimodules", "__init__.py")):
        print(f"error: no library sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
