#!/usr/bin/env python3
"""Write perfbench/expected.json, the frozen outputs the benchmark checks.

Run from the repository root, at a commit whose outputs are known to be
right: ``python3 perfbench/freeze.py``. CLI jobs are frozen at seed 0; each
is run both as a child interpreter and in-process, and the two stdouts must
agree byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402


def main():
    os.chdir(jobs.ROOT)
    sys.path.insert(0, jobs.SRC)
    expected = {}
    for workload in jobs.load_workloads().values():
        for job in workload["jobs"]:
            if job["kind"] != "cli":
                expected[job["id"]] = jobs.run_library_job(job)
                continue
            code, stdout = jobs.run_cli_subprocess(job, 0)
            in_code, in_stdout = jobs.run_cli_inprocess(job, 0)
            if (code, stdout) != (in_code, in_stdout):
                raise SystemExit(f"{job['id']}: in-process output differs from the child's")
            output = jobs.cli_output(code, stdout)
            output["report"] = jobs.read_report(job)
            expected[job["id"]] = {"exit": code, "stdout_sha256": output["stdout_sha256"]}
            problems = jobs.check(job, output, expected, 0)
            if problems:
                raise SystemExit(f"{job['id']}: {problems}")
            print(job["id"], expected[job["id"]], flush=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
