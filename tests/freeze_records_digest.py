#!/usr/bin/env python3
"""Write tests/records_digest.json, the frozen law-suite outcome of 281
contexts that tests/test_records_digest.py compares against.

Run from a checkout whose records are known to be right:
``PYTHONPATH=src python3 tests/freeze_records_digest.py``. Per context the
file holds the SHA-256 of the `check_all` records without `seconds`, with
`check_homomorphism`'s record, or the error it raises; where `check_all`
raises, it holds the error type and message instead. The contexts are the
bundled specs of at most 64 vectors, the 214 `poisoned()` contexts and the
61 lattices up to 5 elements with each factor tuple the search tries.
"""

import hashlib
import json
import os

from quasimodules import canonical, read_qm_file
from quasimodules.errors import Error
from quasimodules.verify import SearchConfig
from quasimodules.verify.laws import check_all, check_homomorphism, factor_descriptor
from quasimodules.verify.search import _exhaustive_lattices, _factor_variants

from conftest import SPECS, SUBSET_INSTANCES, poisoned

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "records_digest.json")


def digest_contexts():
    """(label, qm) for every frozen context, in a fixed order."""
    for spec in sorted(os.listdir(SPECS)):
        qm = read_qm_file(os.path.join(SPECS, spec))
        if qm.size <= 64:
            yield spec, qm
    for name, spec in SUBSET_INSTANCES.items():
        # a seeded poison can repeat, so the label carries its draw number
        for k, (poison, qm) in enumerate(poisoned(*spec)):
            yield f"{name} {k} {poison}", qm
    cfg = SearchConfig(max_lattice_size=5)
    for n in range(1, 6):
        for k, lat in enumerate(_exhaustive_lattices(n)):
            for factors in _factor_variants(lat, cfg):
                descriptors = [factor_descriptor(lat, f) for f in factors]
                yield f"lattice {n}.{k} {descriptors}", canonical(lat, factors)


def _fields(report):
    return [report.clause, report.status, report.instance, report.witness, report.note]


def outcome(label, qm):
    """The SHA-256 of the records of one context, or 'Type: message'."""
    try:
        records = [_fields(r) for r in check_all(qm, instance=label)]
    except Error as exc:
        return f"{type(exc).__name__}: {exc}"
    try:
        records.append(_fields(check_homomorphism(qm, instance=label)))
    except Error as exc:
        records.append(["homomorphism", type(exc).__name__, str(exc)])
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record_digests():
    return {label: outcome(label, qm) for label, qm in digest_contexts()}


def main():
    digests = record_digests()
    with open(DIGEST_FILE, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    raised = sum(": " in v for v in digests.values())
    print(f"{len(digests)} contexts, {raised} raise; wrote {DIGEST_FILE}")


if __name__ == "__main__":
    main()
