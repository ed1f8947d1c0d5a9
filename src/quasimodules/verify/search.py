"""Seeded counterexample search over small bounded lattices.

Lattices are enumerated exhaustively, up to MAX_LATTICE_SIZE = 7 elements,
through naturally labeled order relations: fix a linear extension, force
element 0 as bottom and element n-1 as top, and range over all order bits
between middle elements. Every isomorphism class of bounded lattices on n
elements appears this way.

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
from ..lattice import build_lattice, is_0_distributive, parse_lattice, principal_ideal
from ..quasimodule import canonical
from ..subquasi import SubQM, is_subquasimodule
from .laws import (FAIL, Budgets, TheoremReport, _parse_factor, check_all,
                   factor_descriptor, set_labels, violation_labels, witness_doc)

DROPPABLE = ("0-distributive", "closed-is-splitting")

MAX_LATTICE_SIZE = 7

# product instances lattice x [0, q] are tried only up to this many vectors
_MAX_CARRIER = 80


@dataclass(frozen=True)
class SearchConfig:
    """Search budgets, checked on construction; runs with equal configs are
    bit-reproducible."""

    max_lattice_size: int = 5
    max_factors: int = 2
    seed: int = 0
    drop_hypotheses: tuple = ()

    def __post_init__(self):
        for hyp in self.drop_hypotheses:
            if hyp not in DROPPABLE:
                raise ValueError(
                    f"unknown hypothesis {hyp!r}; droppable: {', '.join(DROPPABLE)}")
        if not 1 <= self.max_lattice_size <= MAX_LATTICE_SIZE:
            raise ValueError(f"max_lattice_size {self.max_lattice_size} is outside "
                             f"the exhaustive range 1..{MAX_LATTICE_SIZE}")
        if self.max_factors not in (1, 2):
            raise ValueError(f"max_factors {self.max_factors} is not 1 or 2 "
                             f"(instances have one or two factors)")


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


def _generate_lattices(cfg):
    for n in range(1, cfg.max_lattice_size + 1):
        yield from _exhaustive_lattices(n)


def _factor_variants(lat, cfg):
    """Factor tuples to try on one lattice: the whole lattice, then the
    lattice times each principal interval, within the carrier cap."""
    top = principal_ideal(lat, lat.top)
    yield (top,)
    if cfg.max_factors >= 2:
        for q in range(lat.n):
            if lat.n * lat.down[q].bit_count() <= _MAX_CARRIER:
                yield top, principal_ideal(lat, q)


# -- violation predicates ----------------------------------------------------
#
# Each takes a lattice and returns a witness dict (replayable through
# `replay_witness`) or None.

def _companion_closure_violation(lat, cfg):
    ok0, w0 = is_0_distributive(lat)
    if ok0:
        return None
    for factors in _factor_variants(lat, cfg):
        qm = canonical(lat, factors)
        for p in range(qm.size):
            mask = principal_perp(qm, p)
            holds, witness = is_subquasimodule(qm, mask)
            if not holds:
                return witness_doc(
                    qm, companion_of=set_labels(qm, 1 << p),
                    companion=set_labels(qm, mask),
                    violation=violation_labels(qm, witness),
                    zero_distributivity_witness=[lat.names[e] for e in w0])
    return None


def _closed_not_splitting_violation(lat, cfg):
    for factors in _factor_variants(lat, cfg):
        qm = canonical(lat, factors)
        for mask in sorted(closed_sets(qm), key=bit_key):
            holds, _ = is_subquasimodule(qm, mask)
            if not holds:
                continue
            if not is_splitting(qm, SubQM(qm, mask)):
                companion = perp(qm, mask)
                missing = qm.full_mask & ~sum_set(qm, mask, companion)
                return witness_doc(qm, closed_set=set_labels(qm, mask),
                                   companion=set_labels(qm, companion),
                                   missing=set_labels(qm, missing))
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
    reports = []
    if not cfg.drop_hypotheses:
        budgets = Budgets(seed=cfg.seed, sampled_closures=80)
        for lat in _generate_lattices(cfg):
            for factors in _factor_variants(lat, cfg):
                qm = canonical(lat, factors)
                desc = ", ".join(factor_descriptor(lat, f) for f in factors)
                label = f"{lat.n}-element lattice x ({desc})"
                for rep in check_all(qm, budgets, instance=label):
                    if rep.status == FAIL:
                        reports.append(rep)
        return reports
    lattices = list(_generate_lattices(cfg))
    for hyp in dict.fromkeys(cfg.drop_hypotheses):
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
