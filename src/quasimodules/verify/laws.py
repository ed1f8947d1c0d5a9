"""The law suite: one check per registered clause, run by `check_all`.

Clauses whose hypotheses the instance does not meet (for example
0-distributive factors) report `hypothesis-not-met`, never failure.
Quantifiers follow explicit budgets: subset-quantified clauses are
exhaustive up to a carrier-size threshold and sampled (all subquasimodules
plus seeded random subsets) beyond it, with any restriction stamped into
the report note.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from time import perf_counter

from ..bitset import bit_key, iter_bits, mask_of
from ..errors import EnumerationBudgetExceeded, NotZeroDistributive
from ..galois import (
    closed_lattice_iso,
    closed_subquasimodules,
    factor_carrier_mask,
    factor_element_mask,
    factorize_closed,
    is_splitting,
    perp,
    principal_perp,
    product_mask,
    sum_set,
)
from ..lattice import Ideal, format_lattice, principal_ideal
from ..quasimodule import verify_axioms
from ..subquasi import SubQM, all_subquasimodules, close_mask, is_subquasimodule

PASS = "pass"
FAIL = "fail"
HYP = "hypothesis-not-met"
BUDGET = "budget-exceeded"


@dataclass
class TheoremReport:
    clause: str
    status: str
    instance: str
    witness: dict | None = None
    note: str | None = None
    seconds: float = 0.0

    def to_record(self):
        return {
            "clause": self.clause,
            "status": self.status,
            "instance": self.instance,
            "witness": self.witness,
            "note": self.note,
            "seconds": round(self.seconds, 6),
        }


@dataclass(frozen=True)
class Budgets:
    """Quantifier budgets for the law suites; seeded runs are reproducible."""

    exhaustive_subset_bits: int = 16
    exhaustive_pair_bits: int = 10
    random_subsets: int = 1000
    random_pairs: int = 1500
    family_samples: int = 300
    max_family: int = 4
    sampled_closures: int = 300
    max_orthogonal_size: int = 3
    max_nodes: int = 200_000
    product_combo_cap: int = 4096
    seed: int = 0


# --------------------------------------------------------------------------
# shared per-instance context

class _Ctx:
    def __init__(self, qm, budgets, instance):
        self.qm = qm
        self.b = budgets
        self.instance = instance
        self.m = qm.size
        self.full = qm.full_mask
        self.zmask = 1 << qm.zero
        self._perptab = None
        self._perp_cache = {}
        self._close_cache = {}
        self._subqm_cache = {}
        self._subs = "unset"
        self._subs_note = None
        self._closed = "unset"
        self._splitting = None
        self._factor_subqm_pools = None

    # -- hypotheses --------------------------------------------------------

    def zd(self):
        from ..galois import factor_zero_distributivity

        return factor_zero_distributivity(self.qm)

    def zd_failure(self):
        for i, ok, witness in self.zd():
            if not ok:
                labels = tuple(self.qm.lattice.names[e] for e in witness)
                return i, labels
        return None

    # -- derived structures --------------------------------------------------

    @property
    def subs(self):
        if self._subs == "unset":
            try:
                self._subs = all_subquasimodules(self.qm, max_nodes=self.b.max_nodes)
            except EnumerationBudgetExceeded as exc:
                self._subs = None
                self._subs_note = str(exc)
        return self._subs

    @property
    def closed(self):
        if self._closed == "unset":
            self._closed = (closed_subquasimodules(self.qm)
                            if self.zd_failure() is None else None)
        return self._closed

    def splitting_masks(self):
        if self._splitting is None:
            subs = self.subs
            if subs is None:
                return None
            self._splitting = [m for m in subs.nodes
                               if is_splitting(self.qm, SubQM(self.qm, m))]
        return self._splitting

    def factor_subqm_pools(self):
        """Per factor: element subsets to quantify product clauses over.

        All subquasimodules of the factor, plus a few seeded arbitrary
        subsets so the 'only if' directions get exercised.
        """
        if self._factor_subqm_pools is None:
            rng = random.Random(self.b.seed + 1)
            pools = []
            for i in range(len(self.qm.factors)):
                fqm = self.qm.factor_qm(i)
                subs_i = all_subquasimodules(fqm)
                pool = {factor_element_mask(fqm, m) for m in subs_i.nodes}
                fm = self.qm.factors[i].members
                fbits = list(iter_bits(fm))
                for _ in range(8):
                    sample = mask_of(e for e in fbits if rng.random() < 0.5)
                    if sample:
                        pool.add(sample)
                pools.append(sorted(pool))
            self._factor_subqm_pools = pools
        return self._factor_subqm_pools

    # -- companion machinery ---------------------------------------------------

    def _build_perptab(self):
        singles = [principal_perp(self.qm, p) for p in range(self.m)]
        tab = [0] * (1 << self.m)
        tab[0] = self.full
        for mask in range(1, 1 << self.m):
            low = mask & -mask
            tab[mask] = tab[mask ^ low] & singles[low.bit_length() - 1]
        self._perptab = tab

    def perp_of(self, mask):
        if self.m <= self.b.exhaustive_subset_bits:
            if self._perptab is None:
                self._build_perptab()
            return self._perptab[mask]
        cached = self._perp_cache.get(mask)
        if cached is None:
            cached = perp(self.qm, mask)
            self._perp_cache[mask] = cached
        return cached

    def dd_of(self, mask):
        return self.perp_of(self.perp_of(mask))

    def close_of(self, mask):
        cached = self._close_cache.get(mask)
        if cached is None:
            cached = close_mask(self.qm, mask)
            self._close_cache[mask] = cached
        return cached

    def subqm_of(self, mask):
        cached = self._subqm_cache.get(mask)
        if cached is None:
            cached = is_subquasimodule(self.qm, mask)
            self._subqm_cache[mask] = cached
        return cached

    # -- quantifier pools -------------------------------------------------------

    def subset_pool(self):
        """(masks, note) quantifying 'for all subsets' clauses."""
        if self.m <= self.b.exhaustive_subset_bits:
            return range(1 << self.m), None
        pool = {0, self.full, self.zmask}
        for p in range(self.m):
            pool.add(1 << p)
        if self.subs is not None:
            pool.update(self.subs.nodes)
        rng = random.Random(self.b.seed + 2)
        for _ in range(self.b.random_subsets):
            pool.add(rng.getrandbits(self.m))
        note = (f"sampled: subquasimodules, singletons and "
                f"{self.b.random_subsets} seeded subsets")
        return sorted(pool), note

    def pair_pool(self):
        """(pairs, note) quantifying 'for all pairs of subsets' clauses."""
        if self.m <= self.b.exhaustive_pair_bits:
            n = 1 << self.m
            return ((a, b) for a in range(n) for b in range(n)), None
        base, _ = self.subset_pool()
        base = list(base)
        nodes = list(self.subs.nodes) if self.subs is not None else []
        pairs = [(a, b) for a in nodes for b in nodes]
        rng = random.Random(self.b.seed + 3)
        for _ in range(self.b.random_pairs):
            pairs.append((rng.choice(base), rng.choice(base)))
        pairs.extend((a, b) for a in (0, self.zmask, self.full) for b in base[:64])
        note = (f"pairs sampled: subquasimodule pairs plus "
                f"{self.b.random_pairs} seeded pairs")
        return pairs, note

    def sampled_pool(self, count):
        """Small deterministic pool for closure-heavy clauses."""
        pool = {0, self.zmask, self.full}
        for p in range(self.m):
            pool.add(1 << p)
        if self.subs is not None:
            pool.update(self.subs.nodes)
        rng = random.Random(self.b.seed + 4)
        for _ in range(count):
            pool.add(rng.getrandbits(self.m))
        return sorted(pool)

    # -- witness helpers ---------------------------------------------------------

    def labels(self, mask):
        return [list(v) for v in self.qm.label_sets(mask)]

    def doc(self, **fields):
        out = {
            "lattice": format_lattice(self.qm.lattice),
            "factors": [_factor_descriptor(self.qm.lattice, f)
                        for f in self.qm.factors],
        }
        out.update(fields)
        return out


def violation_labels(qm, witness):
    """Report form of an is_subquasimodule witness: labels instead of positions."""
    if witness is None:
        return None
    kind = witness[0]
    if kind == "zero":
        return ["zero-missing"]
    if kind == "add":
        _, p, q, s = witness
        return ["add", list(qm.vector_labels(p)),
                list(qm.vector_labels(q)), list(qm.vector_labels(s))]
    _, c, p, s = witness
    return ["smul", qm.lattice.names[c],
            list(qm.vector_labels(p)), list(qm.vector_labels(s))]


def _factor_descriptor(lattice, ideal):
    q = ideal.max_element
    if ideal.members == lattice.down[q]:
        return f"principal {lattice.names[q]}"
    return "set " + " ".join(lattice.labels(ideal.members))


def _parse_factor(lattice, desc):
    tokens = desc.split()
    if tokens[0] == "principal":
        return principal_ideal(lattice, lattice.index(tokens[1]))
    return Ideal.from_members(lattice, tokens[1:])


# --------------------------------------------------------------------------
# clause checks
#
# Each returns (status, witness, note). Clause ids are stable strings used in
# reports and documented in the repository clause registry.

def _c_axioms(ctx):
    report = verify_axioms(ctx.qm)
    if report.ok:
        return PASS, None, None
    bad = report.failures()[0]
    return FAIL, ctx.doc(axiom=bad.name, witness=list(bad.witness)), None


def _c_rem1_i(ctx):
    pool, note = ctx.subset_pool()
    for a in pool:
        if a & ~ctx.dd_of(a):
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def _c_rem1_ii(ctx):
    pairs, note = ctx.pair_pool()
    for a, b in pairs:
        if a & ~b == 0 and ctx.perp_of(b) & ~ctx.perp_of(a):
            return FAIL, ctx.doc(smaller=ctx.labels(a), larger=ctx.labels(b)), note
    return PASS, None, note


def _c_rem1_iii(ctx):
    pool, note = ctx.subset_pool()
    for a in pool:
        pa = ctx.perp_of(a)
        if ctx.perp_of(ctx.perp_of(pa)) != pa:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def _c_rem1_iv(ctx):
    pairs, note = ctx.pair_pool()
    for a, b in pairs:
        if (a & ~ctx.perp_of(b) == 0) != (b & ~ctx.perp_of(a) == 0):
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note
    return PASS, None, note


def _c_lem4_i(ctx):
    pairs, note = ctx.pair_pool()
    for a, b in pairs:
        if ctx.perp_of(a) & ctx.perp_of(b) != ctx.perp_of(a | b):
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note
    status, witness, fnote = _family_check(
        ctx, lambda fam: _intersect(ctx.perp_of(x) for x in fam) == ctx.perp_of(_union(fam)))
    if status != PASS:
        return status, witness, _join_notes(note, fnote)
    return PASS, None, note


def _c_lem4_ii(ctx):
    pairs, note = ctx.pair_pool()
    for a, b in pairs:
        if ctx.dd_of(a & b) & ~(ctx.dd_of(a) & ctx.dd_of(b)):
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note
    status, witness, fnote = _family_check(
        ctx, lambda fam: ctx.dd_of(_intersect(fam))
        & ~_intersect(ctx.dd_of(x) for x in fam) == 0)
    if status != PASS:
        return status, witness, _join_notes(note, fnote)
    return PASS, None, note


def _c_lem4_iii(ctx):
    if ctx.perp_of(ctx.full) != ctx.zmask:
        return FAIL, ctx.doc(companion=ctx.labels(ctx.perp_of(ctx.full))), None
    return PASS, None, None


def _c_lem4_iv(ctx):
    # Any vector orthogonal to itself is zero, so the intersection of a set
    # with its companion lies inside {zero}; it equals {zero} exactly when
    # the set contains the zero vector. Tested in that refined form.
    pool, note = ctx.subset_pool()
    for a in pool:
        if a == 0:
            continue
        inter = a & ctx.perp_of(a)
        if inter & ~ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
        if a & ctx.zmask and inter != ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


def _c_lem4_v(ctx):
    if ctx.perp_of(ctx.zmask) != ctx.full:
        return FAIL, ctx.doc(companion=ctx.labels(ctx.perp_of(ctx.zmask))), None
    return PASS, None, None


def _c_separation(ctx):
    qm = ctx.qm
    inner = qm.inner
    for p in range(ctx.m):
        for q in range(p + 1, ctx.m):
            if not any(inner(p, z) != inner(q, z) for z in range(ctx.m)):
                return FAIL, ctx.doc(first=list(qm.vector_labels(p)),
                                     second=list(qm.vector_labels(q))), None
    return PASS, None, None


def _c_prop2(ctx):
    zd = ctx.zd_failure()
    pool, note = ctx.subset_pool()
    if zd is not None:
        i, labels = zd
        hyp_note = f"factor {i} is not 0-distributive (witness {labels})"
        for a in pool:
            ok, witness = ctx.subqm_of(ctx.perp_of(a))
            if not ok:
                return HYP, ctx.doc(
                    subset=ctx.labels(a),
                    companion=ctx.labels(ctx.perp_of(a)),
                    violation=violation_labels(ctx.qm, witness)), hyp_note
        return HYP, None, hyp_note + "; no companion-closure violation in the pool"
    for a in pool:
        ok, witness = ctx.subqm_of(ctx.perp_of(a))
        if not ok:
            return FAIL, ctx.doc(subset=ctx.labels(a),
                                 violation=violation_labels(ctx.qm, witness)), note
    return PASS, None, note


def _hyp_guard(fn):
    def wrapped(ctx):
        zd = ctx.zd_failure()
        if zd is not None:
            i, labels = zd
            return HYP, None, f"factor {i} is not 0-distributive (witness {labels})"
        return fn(ctx)

    return wrapped


@_hyp_guard
def _c_th2_i(ctx):
    nodes = set(ctx.closed.nodes)
    pool, note = ctx.subset_pool()
    seen = set()
    for a in pool:
        pa = ctx.perp_of(a)
        seen.add(pa)
        if pa not in nodes:
            return FAIL, ctx.doc(subset=ctx.labels(a), companion=ctx.labels(pa)), note
    if note is None and seen != nodes:
        missing = sorted(nodes - seen, key=bit_key)[0]
        return FAIL, ctx.doc(closed_not_a_companion=ctx.labels(missing)), note
    return PASS, None, note


@_hyp_guard
def _c_th2_ii(ctx):
    nodes = ctx.closed.nodes
    pool, note = ctx.subset_pool()
    for a in pool:
        dd = ctx.dd_of(a)
        if a & ~dd or dd not in ctx.closed.base.index:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
        for n in nodes:
            if a & ~n == 0 and dd & ~n:
                return FAIL, ctx.doc(subset=ctx.labels(a), smaller_closed=ctx.labels(n)), note
    return PASS, None, note


@_hyp_guard
def _c_th2_iii(ctx):
    nodes = ctx.closed.nodes
    for a in nodes:
        for b in nodes:
            join = ctx.dd_of(a | b)
            if join not in ctx.closed.base.index or (a | b) & ~join:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
            for n in nodes:
                if (a | b) & ~n == 0 and join & ~n:
                    return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b),
                                         upper=ctx.labels(n)), None
    if ctx.dd_of(_union(nodes)) != ctx.full:
        return FAIL, ctx.doc(family="all closed"), None
    return PASS, None, None


@_hyp_guard
def _c_th2_iv(ctx):
    closed = ctx.closed
    nodes = closed.nodes
    for i, a in enumerate(nodes):
        pa = ctx.perp_of(a)
        if pa not in closed.base.index or ctx.perp_of(pa) != a:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
        if closed.perp_map[i] != closed.base.index[pa]:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
    for a in nodes:
        for b in nodes:
            if a & ~b == 0 and ctx.perp_of(b) & ~ctx.perp_of(a):
                return FAIL, ctx.doc(smaller=ctx.labels(a), larger=ctx.labels(b)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_v(ctx):
    closed = ctx.closed
    index = closed.base.index
    nodes = closed.nodes
    if ctx.zmask not in index or ctx.full not in index:
        return FAIL, ctx.doc(), None
    for a in nodes:
        for b in nodes:
            if a & b not in index or ctx.dd_of(a | b) not in index:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_vi(ctx):
    pool = ctx.sampled_pool(ctx.b.sampled_closures)
    note = f"sampled over {len(pool)} subsets"
    for a in pool:
        if ctx.perp_of(a) != ctx.perp_of(ctx.close_of(a)):
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


@_hyp_guard
def _c_th2_vii(ctx):
    sets = _orthogonal_sets(ctx, ctx.b.max_orthogonal_size)
    note = f"orthogonal sets up to size {ctx.b.max_orthogonal_size} ({len(sets)} sets)"
    for cset in sets:
        cmask = mask_of(cset)
        for r in range(len(cset) + 1):
            for bsub in combinations(cset, r):
                bmask = mask_of(bsub)
                left = ctx.close_of(cmask & ~bmask)
                if left & ~ctx.perp_of(ctx.close_of(bmask)):
                    return FAIL, ctx.doc(orthogonal=ctx.labels(cmask),
                                         removed=ctx.labels(bmask)), note
    return PASS, None, note


def _c_lem6_i(ctx):
    subs = ctx.subs
    if subs is None:
        return BUDGET, None, ctx._subs_note
    qm = ctx.qm
    for mask in subs.nodes:
        for i in range(len(qm.factors)):
            fqm = qm.factor_qm(i)
            fmask = factor_carrier_mask(fqm, qm.project(mask, i))
            ok, _ = is_subquasimodule(fqm, fmask)
            if not ok:
                return FAIL, ctx.doc(subquasimodule=ctx.labels(mask), factor=i), None
    return PASS, None, None


def _c_lem6_ii(ctx):
    return _product_iff(ctx, lambda fqm, fmask: is_subquasimodule(fqm, fmask)[0],
                        lambda mask: ctx.subqm_of(mask)[0])


def _c_lem1(ctx):
    qm = ctx.qm
    k = len(qm.factors)
    pool, note = ctx.subset_pool()
    fperp_cache = [{} for _ in range(k)]

    def factor_perp_elements(i, emask):
        cached = fperp_cache[i].get(emask)
        if cached is None:
            fqm = qm.factor_qm(i)
            cached = factor_element_mask(
                fqm, perp(fqm, factor_carrier_mask(fqm, emask)))
            fperp_cache[i][emask] = cached
        return cached

    if note is None:
        # exhaustive: projections by dynamic programming over subset masks
        proj = [[0] * (1 << ctx.m) for _ in range(k)]
        for i in range(k):
            row = proj[i]
            for mask in range(1, 1 << ctx.m):
                low = mask & -mask
                row[mask] = row[mask ^ low] | 1 << qm.carrier[low.bit_length() - 1][i]
        for a in pool:
            expect = product_mask(qm, [factor_perp_elements(i, proj[i][a])
                                       for i in range(k)])
            if ctx.perp_of(a) != expect:
                return FAIL, ctx.doc(subset=ctx.labels(a)), note
        return PASS, None, note
    for a in pool:
        expect = product_mask(qm, [factor_perp_elements(i, qm.project(a, i))
                                   for i in range(k)])
        if ctx.perp_of(a) != expect:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


@_hyp_guard
def _c_th3(ctx):
    qm = ctx.qm
    for mask in ctx.closed.nodes:
        factorize_closed(qm, SubQM(qm, mask))  # raises on violation
    pools = []
    for i in range(len(qm.factors)):
        fqm = qm.factor_qm(i)
        fcl = closed_subquasimodules(fqm)
        pools.append([factor_element_mask(fqm, m) for m in fcl.nodes])
    index = ctx.closed.base.index
    for choice in iproduct(*pools):
        if product_mask(qm, choice) not in index:
            labels = [list(qm.lattice.labels(m)) for m in choice]
            return FAIL, ctx.doc(factor_choice=labels), None
    return PASS, None, None


@_hyp_guard
def _c_cor1(ctx):
    iso = closed_lattice_iso(ctx.qm)
    if not iso.is_isomorphism:
        return FAIL, ctx.doc(bijective=iso.bijective,
                             order_embedding=iso.order_embedding), None
    return PASS, None, None


def _c_splitting_subset_closed(ctx):
    masks = ctx.splitting_masks()
    if masks is None:
        return BUDGET, None, ctx._subs_note
    for mask in masks:
        if ctx.dd_of(mask) != mask:
            return FAIL, ctx.doc(splitting=ctx.labels(mask)), None
    return PASS, None, None


@_hyp_guard
def _c_splitting_perp(ctx):
    masks = ctx.splitting_masks()
    if masks is None:
        return BUDGET, None, ctx._subs_note
    qm = ctx.qm
    for mask in masks:
        companion = ctx.perp_of(mask)
        ok, _ = ctx.subqm_of(companion)
        if not ok or not is_splitting(qm, SubQM(qm, companion)):
            return FAIL, ctx.doc(splitting=ctx.labels(mask),
                                 companion=ctx.labels(companion)), None
    return PASS, None, None


def _c_splitting_product(ctx):
    def factor_side(fqm, fmask):
        ok, _ = is_subquasimodule(fqm, fmask)
        return ok and is_splitting_mask(fqm, fmask)

    def product_side(mask):
        ok, _ = ctx.subqm_of(mask)
        return ok and is_splitting_mask(ctx.qm, mask)

    def is_splitting_mask(qm, mask):
        return sum_set(qm, mask, perp(qm, mask)) == qm.full_mask

    return _product_iff(ctx, factor_side, product_side)


def _product_iff(ctx, factor_side, product_side):
    """Check: product passes iff every factor component passes."""
    qm = ctx.qm
    pools = ctx.factor_subqm_pools()
    total = 1
    for p in pools:
        total *= len(p)
    note = None
    choices = iproduct(*pools)
    if total > ctx.b.product_combo_cap:
        rng = random.Random(ctx.b.seed + 5)
        choices = [tuple(rng.choice(p) for p in pools)
                   for _ in range(ctx.b.product_combo_cap)]
        note = f"sampled {ctx.b.product_combo_cap} of {total} factor combinations"
    for choice in choices:
        mask = product_mask(qm, choice)
        left = product_side(mask)
        right = all(
            factor_side(qm.factor_qm(i), factor_carrier_mask(qm.factor_qm(i), em))
            for i, em in enumerate(choice))
        if left != right:
            labels = [list(qm.lattice.labels(em)) for em in choice]
            return FAIL, ctx.doc(factor_choice=labels, product=left, factors_pass=right), note
    return PASS, None, note


def _family_check(ctx, law):
    """Apply a family law to seeded families of size 3..max_family."""
    pool, note = ctx.subset_pool()
    pool = list(pool)
    rng = random.Random(ctx.b.seed + 6)
    for _ in range(ctx.b.family_samples):
        size = rng.randint(3, ctx.b.max_family)
        fam = tuple(rng.choice(pool) for _ in range(size))
        if not law(fam):
            return FAIL, ctx.doc(family=[ctx.labels(x) for x in fam]), note
    return PASS, None, _join_notes(note, f"families up to size {ctx.b.max_family} sampled")


def _orthogonal_sets(ctx, max_size):
    qm = ctx.qm
    out = []
    pairs_ok = [[qm.orthogonal(p, q) for q in range(ctx.m)] for p in range(ctx.m)]

    def rec(start, cur):
        if cur:
            out.append(tuple(cur))
        if len(cur) == max_size:
            return
        for p in range(start, ctx.m):
            if all(pairs_ok[p][q] for q in cur):
                cur.append(p)
                rec(p + 1, cur)
                cur.pop()

    rec(0, [])
    return out


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def _intersect(masks):
    out = None
    for m in masks:
        out = m if out is None else out & m
    return out if out is not None else 0


def _join_notes(*notes):
    parts = [n for n in notes if n]
    return "; ".join(parts) if parts else None


_CLAUSES = (
    ("axioms", _c_axioms),
    ("rem1.i", _c_rem1_i),
    ("rem1.ii", _c_rem1_ii),
    ("rem1.iii", _c_rem1_iii),
    ("rem1.iv", _c_rem1_iv),
    ("lem4.i", _c_lem4_i),
    ("lem4.ii", _c_lem4_ii),
    ("lem4.iii", _c_lem4_iii),
    ("lem4.iv", _c_lem4_iv),
    ("lem4.v", _c_lem4_v),
    ("separation", _c_separation),
    ("prop2", _c_prop2),
    ("th2.i", _c_th2_i),
    ("th2.ii", _c_th2_ii),
    ("th2.iii", _c_th2_iii),
    ("th2.iv", _c_th2_iv),
    ("th2.v", _c_th2_v),
    ("th2.vi", _c_th2_vi),
    ("th2.vii", _c_th2_vii),
    ("lem6.i", _c_lem6_i),
    ("lem6.ii", _c_lem6_ii),
    ("lem1", _c_lem1),
    ("th3", _c_th3),
    ("cor1", _c_cor1),
    ("splitting-subset-closed", _c_splitting_subset_closed),
    ("prop-splitting-perp", _c_splitting_perp),
    ("prop-splitting-product", _c_splitting_product),
)

CLAUSE_IDS = tuple(name for name, _ in _CLAUSES)


def check_all(qm, budgets=None, instance=None):
    """Run every registered law clause against one canonical quasimodule."""
    budgets = budgets or Budgets()
    instance = instance or repr(qm)
    ctx = _Ctx(qm, budgets, instance)
    reports = []
    for clause, fn in _CLAUSES:
        start = perf_counter()
        try:
            status, witness, note = fn(ctx)
        except EnumerationBudgetExceeded as exc:
            status, witness, note = BUDGET, None, str(exc)
        reports.append(TheoremReport(clause, status, instance, witness, note,
                                     perf_counter() - start))
    return reports


def check_homomorphism(qm, budgets=None, instance=None):
    """Conditional homomorphism law for the double-companion map.

    If the double companion distributes over intersections of subquasimodule
    families, it is a complete homomorphism from the subquasimodule lattice
    onto the closed one. The intersection hypothesis is tested over all node
    pairs and seeded larger families; when it fails, the report carries the
    witness family and claims nothing further.
    """
    budgets = budgets or Budgets()
    instance = instance or repr(qm)
    ctx = _Ctx(qm, budgets, instance)
    start = perf_counter()
    zd = ctx.zd_failure()
    if zd is not None:
        raise NotZeroDistributive(
            f"factor {zd[0]} is not 0-distributive (witness {zd[1]})",
            factor=zd[0])
    subs = ctx.subs
    if subs is None:
        return TheoremReport("homomorphism", BUDGET, instance, None,
                             ctx._subs_note, perf_counter() - start)
    nodes = subs.nodes

    def finish(status, witness, note):
        return TheoremReport("homomorphism", status, instance, witness, note,
                             perf_counter() - start)

    for a in nodes:
        for b in nodes:
            if ctx.dd_of(a & b) != ctx.dd_of(a) & ctx.dd_of(b):
                return finish(HYP, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)),
                              "intersection hypothesis fails; homomorphism not claimed")
    rng = random.Random(budgets.seed + 7)
    for _ in range(budgets.family_samples):
        size = rng.randint(3, budgets.max_family)
        fam = tuple(rng.choice(nodes) for _ in range(size))
        if ctx.dd_of(_intersect(fam)) != _intersect(ctx.dd_of(x) for x in fam):
            return finish(HYP, ctx.doc(family=[ctx.labels(x) for x in fam]),
                          "intersection hypothesis fails on a family; "
                          "homomorphism not claimed")

    note = (f"hypothesis holds over {len(nodes)}^2 pairs and "
            f"{budgets.family_samples} seeded families")
    for a in nodes:
        pa = ctx.perp_of(a)
        if ctx.dd_of(pa) != ctx.perp_of(ctx.dd_of(a)):
            return finish(FAIL, ctx.doc(node=ctx.labels(a)), note)
        for b in nodes:
            join = ctx.close_of(a | b)
            if ctx.dd_of(join) != ctx.dd_of(ctx.dd_of(a) | ctx.dd_of(b)):
                return finish(FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note)
    if ctx.dd_of(ctx.zmask) != ctx.zmask or ctx.dd_of(qm.full_mask) != qm.full_mask:
        return finish(FAIL, ctx.doc(), note)
    for _ in range(budgets.family_samples):
        size = rng.randint(3, budgets.max_family)
        fam = tuple(rng.choice(nodes) for _ in range(size))
        joined = ctx.dd_of(_union(ctx.dd_of(x) for x in fam))
        if ctx.dd_of(ctx.close_of(_union(fam))) != joined:
            return finish(FAIL, ctx.doc(family=[ctx.labels(x) for x in fam]), note)
        if ctx.dd_of(_intersect(fam)) != _intersect(ctx.dd_of(x) for x in fam):
            return finish(FAIL, ctx.doc(family=[ctx.labels(x) for x in fam]), note)
    return finish(PASS, None, note)
