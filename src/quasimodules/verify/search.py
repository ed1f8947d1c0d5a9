"""Seeded counterexample search over small bounded lattices.

Lattices are enumerated exhaustively, up to MAX_LATTICE_SIZE = 7 elements,
through naturally labeled order relations: fix a linear extension, force
element 0 as bottom and element n-1 as top, and range over all order bits
between middle elements. Every isomorphism class of bounded lattices on n
elements appears this way, many of them under several labellings.

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

from time import perf_counter

from ..bitset import iter_bits, sort_masks
from ..errors import Error, NotALattice
from ..galois import (
    closed_sets,
    is_closed,
    is_splitting,
    perp,
    principal_perp,
    sum_set,
)
from ..lattice import (FrozenRecord, Lattice, is_0_distributive, parse_lattice,
                       principal_ideal, set_field)
from ..quasimodule import canonical
from ..subquasi import SubQM, is_subquasimodule
from . import DROPPABLE, MAX_LATTICE_SIZE
from .laws import (FAIL, Budgets, TheoremReport, _parse_factor, check_all,
                   factor_descriptor, set_labels, violation_labels, witness_doc)

# product instances lattice x [0, q] are tried only up to this many vectors
_MAX_CARRIER = 80


class SearchConfig(FrozenRecord):
    """Search budgets, checked on construction; runs with equal configs are
    bit-reproducible."""

    __slots__ = ("max_lattice_size", "max_factors", "seed", "drop_hypotheses")

    def __init__(self, max_lattice_size=5, max_factors=2, seed=0, drop_hypotheses=()):
        set_field(self, "max_lattice_size", max_lattice_size)
        set_field(self, "max_factors", max_factors)
        set_field(self, "seed", seed)
        set_field(self, "drop_hypotheses", drop_hypotheses)
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
    """Every naturally labelled bounded lattice on n elements, each once.

    Element 0 is the bottom, element n-1 the top, and e_i <= e_j only when
    i <= j. Each choice of order bits between middle elements is closed
    transitively; an up-tuple already met is skipped before any lattice is
    built. Isomorphic copies with other labellings all appear: 39 lattices on
    6 elements, which fall into 15 isomorphism classes.
    """
    names = tuple(f"e{i}" for i in range(n))
    if n == 1:
        yield Lattice(names, (1,))
        return
    full, top = (1 << n) - 1, 1 << (n - 1)
    mids = range(1, n - 1)
    free = [(i, j) for i in mids for j in range(i + 1, n - 1)]
    seen = set()
    for bits in range(1 << len(free)):
        direct = [0] * n
        for k, (i, j) in enumerate(free):
            if bits >> k & 1:
                direct[i] |= 1 << j
        # successors have larger indices, so one downward sweep closes the order
        up = [0] * n
        up[n - 1] = top
        for i in range(n - 2, 0, -1):
            u = 1 << i | top
            for j in iter_bits(direct[i]):
                u |= up[j]
            up[i] = u
        up[0] = full
        up = tuple(up)
        if up in seen:
            continue
        seen.add(up)
        try:
            lat = Lattice(names, up)
        except NotALattice:
            continue
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
        for mask in sort_masks(closed_sets(qm), qm.size):
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


def _restrict(up, drop):
    """The up-sets of a partial order without element `drop`, renumbered."""
    low = (1 << drop) - 1
    return tuple(u & low | u >> 1 & ~low
                 for i, u in enumerate(up) if i != drop)


def _minimize(lat, detail, violation, memo):
    """Greedily drop elements while the violation predicate still fires.

    A restriction of a partial order is one, so each candidate is built
    directly from its restricted up-sets. `memo` maps (names, up) to
    (lattice, detail), or to None when the candidate is not a lattice; it is
    shared by every finding of one hypothesis.
    """
    current = lat
    improved = True
    while improved and current.n > 1:
        improved = False
        for drop in range(current.n):
            names = current.names[:drop] + current.names[drop + 1:]
            key = (names, _restrict(current.up, drop))
            if key not in memo:
                try:
                    candidate = Lattice(*key)
                except Error:
                    memo[key] = None
                else:
                    memo[key] = (candidate, violation(candidate))
            found = memo[key]
            if found is not None and found[1] is not None:
                current, detail = found
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
        memo = {}
        for lat in lattices:
            start = perf_counter()
            detail = fn(lat)
            memo[lat.names, lat.up] = (lat, detail)
            if detail is None:
                continue
            small, small_detail = _minimize(lat, detail, fn, memo)
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
