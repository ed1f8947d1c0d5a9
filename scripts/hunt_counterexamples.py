#!/usr/bin/env python3
"""Counterexample hunting over all small bounded lattices.

Runs the two bundled hunts: companion-closure violations on lattices that
are not 0-distributive, and closed-but-not-splitting subquasimodules. Each
finding is replayed through the library before printing.
"""

import argparse
import json
import sys

from quasimodules import SearchConfig, counterexample_search, replay_witness
from quasimodules.verify import MAX_LATTICE_SIZE


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=6,
                        choices=range(1, MAX_LATTICE_SIZE + 1))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--drop", action="append", default=None,
                        choices=("0-distributive", "closed-is-splitting"))
    parser.add_argument("--soundness", action="store_true",
                        help="drop nothing: check every law on every "
                             "generated instance (expect zero findings)")
    args = parser.parse_args()

    if args.soundness:
        cfg = SearchConfig(max_lattice_size=args.max_size, seed=args.seed)
        findings = counterexample_search(cfg)
        print(f"soundness run: {len(findings)} finding(s)")
        for f in findings:
            print(f"  [{f.clause}] {f.instance}")
        return 1 if findings else 0

    drops = args.drop or ["0-distributive", "closed-is-splitting"]
    total = 0
    for drop in drops:
        cfg = SearchConfig(max_lattice_size=args.max_size, seed=args.seed,
                           drop_hypotheses=(drop,))
        findings = counterexample_search(cfg)
        print(f"drop {drop!r}: {len(findings)} finding(s)")
        for f in findings:
            if not replay_witness(f):
                print(f"error: finding [{f.clause}] {f.instance} does not replay",
                      file=sys.stderr)
                return 1
            total += 1
            print(f"  [{f.clause}] {f.instance}")
            for line in f.witness["lattice"].rstrip().splitlines():
                print(f"    | {line}")
            detail = {k: v for k, v in f.witness.items() if k != "lattice"}
            print(f"    {json.dumps(detail, sort_keys=True)}")
    print(f"\n{total} finding(s), all replayed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
