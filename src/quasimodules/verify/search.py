"""Seeded counterexample search over small bounded lattices.

Lattices are enumerated exhaustively up to 7 elements through naturally
labeled order relations: fix a linear extension, force element 0 as bottom
and element n-1 as top, and range over all order bits between middle
elements. Every isomorphism class of bounded lattices on n elements appears
this way. Beyond the exhaustive range, seeded random cover relations are
sampled.

Two claims can be dropped for hunting:

- "0-distributive": keep only lattices that are not 0-distributive and look
  for a subset whose orthogonality companion is not a subquasimodule.
- "closed-is-splitting": look for a closed subquasimodule whose sum with its
  companion misses part of the carrier.

With nothing dropped the search is a soundness run: every law clause is
checked on every generated instance and any failure is returned (none are
expected). Findings are minimized by greedy element removal while the
violation persists, and carry a replayable witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from ..bitset import bit_key
from ..errors import Error
from ..galois import (
    closed_sets,
    is_closed,
    is_splitting,
    perp,
    principal_perp,
    sum_set,
)
from ..lattice import (
    build_lattice,
    format_lattice,
    is_0_distributive,
    parse_lattice,
    principal_ideal,
)
from ..quasimodule import canonical
from ..subquasi import SubQM, is_subquasimodule
from .laws import (FAIL, Budgets, TheoremReport, _parse_factor, check_all,
                   violation_labels)

DROPPABLE = ("0-distributive", "closed-is-splitting")

_EXHAUSTIVE_LIMIT = 7


@dataclass(frozen=True)
class SearchConfig:
    """Search budgets; runs with equal configs are bit-reproducible."""

    max_lattice_size: int = 5
    max_factors: int = 2
    max_carrier: int = 80
    seed: int = 0
    drop_hypotheses: tuple = ()
    random_trials: int = 0


def _exhaustive_lattices(n):
    """Every bounded lattice on n elements, up to isomorphism (with repeats
    possible before transitive-closure dedup)."""
    names = tuple(f"e{i}" for i in range(n))
    if n == 1:
        yield build_lattice(names, [])
        return
    base = [(names[0], names[j]) for j in range(1, n)]
    base += [(names[i], names[n - 1]) for i in range(n - 1)]
    mids = list(range(1, n - 1))
    free = [(i, j) for a, i in enumerate(mids) for j in mids[a + 1:]]
    seen = set()
    for bits in range(1 << len(free)):
        pairs = list(base)
        for k, (i, j) in enumerate(free):
            if bits >> k & 1:
                pairs.append((names[i], names[j]))
        try:
            lat = build_lattice(names, pairs)
        except Error:
            continue
        if lat.up not in seen:
            seen.add(lat.up)
            yield lat


def _random_lattice(rng, n):
    names = tuple(f"e{i}" for i in range(n))
    pairs = [(names[0], names[j]) for j in range(1, n)]
    pairs += [(names[i], names[n - 1]) for i in range(n - 1)]
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            if rng.random() < 0.3:
                pairs.append((names[i], names[j]))
    try:
        return build_lattice(names, pairs)
    except Error:
        return None


def _generate_lattices(cfg, rng):
    seen = set()
    for n in range(1, min(cfg.max_lattice_size, _EXHAUSTIVE_LIMIT) + 1):
        for lat in _exhaustive_lattices(n):
            key = (lat.names, lat.up)
            if key not in seen:
                seen.add(key)
                yield lat
    for _ in range(cfg.random_trials):
        n = rng.randint(2, cfg.max_lattice_size)
        lat = _random_lattice(rng, n)
        if lat is not None and (lat.names, lat.up) not in seen:
            seen.add((lat.names, lat.up))
            yield lat


def _factor_variants(lat, cfg):
    """Factor tuples to try on one lattice: the whole lattice, then the
    lattice times each principal interval, within the carrier cap."""
    top = principal_ideal(lat, lat.top)
    yield (top,), (f"principal {lat.names[lat.top]}",)
    if cfg.max_factors >= 2:
        for q in range(lat.n):
            if lat.n * lat.down[q].bit_count() <= cfg.max_carrier:
                yield ((top, principal_ideal(lat, q)),
                       (f"principal {lat.names[lat.top]}", f"principal {lat.names[q]}"))


# -- violation predicates ----------------------------------------------------
#
# Each takes a lattice and returns a witness dict (replayable through
# `replay_witness`) or None.

def _companion_closure_violation(lat, cfg):
    ok0, w0 = is_0_distributive(lat)
    if ok0:
        return None
    for factors, desc in _factor_variants(lat, cfg):
        qm = canonical(lat, factors)
        for p in range(qm.size):
            mask = principal_perp(qm, p)
            holds, witness = is_subquasimodule(qm, mask)
            if not holds:
                return {
                    "lattice": format_lattice(lat),
                    "factors": list(desc),
                    "companion_of": [list(qm.vector_labels(p))],
                    "companion": [list(v) for v in qm.label_sets(mask)],
                    "violation": violation_labels(qm, witness),
                    "zero_distributivity_witness": [lat.names[e] for e in w0],
                }
    return None


def _closed_not_splitting_violation(lat, cfg):
    for factors, desc in _factor_variants(lat, cfg):
        qm = canonical(lat, factors)
        for mask in sorted(closed_sets(qm), key=bit_key):
            holds, _ = is_subquasimodule(qm, mask)
            if not holds:
                continue
            if not is_splitting(qm, SubQM(qm, mask)):
                companion = perp(qm, mask)
                missing = qm.full_mask & ~sum_set(qm, mask, companion)
                return {
                    "lattice": format_lattice(lat),
                    "factors": list(desc),
                    "closed_set": [list(v) for v in qm.label_sets(mask)],
                    "companion": [list(v) for v in qm.label_sets(companion)],
                    "missing": [list(v) for v in qm.label_sets(missing)],
                }
    return None


def _minimize(lat, violation):
    """Greedily drop elements while the violation predicate still fires."""
    current = lat
    detail = violation(current)
    improved = True
    while improved and current.n > 1:
        improved = False
        for drop in range(current.n):
            keep = [i for i in range(current.n) if i != drop]
            names = [current.names[i] for i in keep]
            pairs = [(current.names[i], current.names[j])
                     for i in keep for j in keep if i != j and current.le(i, j)]
            try:
                candidate = build_lattice(names, pairs)
            except Error:
                continue
            d = violation(candidate)
            if d is not None:
                current, detail = candidate, d
                improved = True
                break
    return current, detail


_PREDICATES = {
    "0-distributive": ("prop2", _companion_closure_violation),
    "closed-is-splitting": ("closed-not-splitting", _closed_not_splitting_violation),
}


def counterexample_search(cfg):
    """Hunt violations per the search config; empty result means none found."""
    for hyp in cfg.drop_hypotheses:
        if hyp not in _PREDICATES:
            raise ValueError(
                f"unknown hypothesis {hyp!r}; droppable: {', '.join(DROPPABLE)}")
    rng = random.Random(cfg.seed)
    reports = []
    if not cfg.drop_hypotheses:
        budgets = Budgets(seed=cfg.seed, random_subsets=200, random_pairs=300,
                          family_samples=60, sampled_closures=80)
        for lat in _generate_lattices(cfg, rng):
            for factors, desc in _factor_variants(lat, cfg):
                qm = canonical(lat, factors)
                label = f"{lat.n}-element lattice x ({', '.join(desc)})"
                for rep in check_all(qm, budgets, instance=label):
                    if rep.status == FAIL:
                        reports.append(rep)
        return reports
    lattices = list(_generate_lattices(cfg, rng))
    for hyp in cfg.drop_hypotheses:
        clause, predicate = _PREDICATES[hyp]
        fn = lambda lat, _p=predicate: _p(lat, cfg)
        for lat in lattices:
            start = perf_counter()
            detail = fn(lat)
            if detail is None:
                continue
            small, small_detail = _minimize(lat, fn)
            reports.append(TheoremReport(
                clause, FAIL, f"{small.n}-element lattice",
                small_detail, f"hypothesis {hyp!r} dropped; minimized from "
                           f"{lat.n} elements", perf_counter() - start))
    return reports


def replay_witness(report):
    """Re-run the violated predicate on a finding's embedded instance."""
    witness = report.witness or {}
    if "lattice" not in witness:
        return False
    lat = parse_lattice(witness["lattice"])
    factors = tuple(_parse_factor(lat, d) for d in witness.get("factors", ()))
    qm = canonical(lat, factors)
    if report.clause == "prop2":
        mask = qm.mask([qm.vector(*v) for v in witness["companion_of"]])
        holds, _ = is_subquasimodule(qm, perp(qm, mask))
        return not holds
    if report.clause == "closed-not-splitting":
        mask = qm.mask([qm.vector(*v) for v in witness["closed_set"]])
        holds, _ = is_subquasimodule(qm, mask)
        return (holds and is_closed(qm, mask)
                and not is_splitting(qm, SubQM(qm, mask)))
    return False
