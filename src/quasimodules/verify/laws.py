"""The law suite: one check per registered clause, run by `check_all`.

Clauses whose hypotheses the instance does not meet (for example
0-distributive factors) report `hypothesis-not-met`, never failure. Every
companion is the meet of the singleton companions of its members (Ore,
"Galois connexions", 1944), so the laws are decided on generating sets, at
every carrier size. Subset clauses walk the empty set, the singletons and
the pairs {zero, q}; `rem1.iii` and `th2.ii` read the companion family and
the closed nodes. Pair clauses scan the pairs of generators; their family
forms follow by induction on family size. `lem1` is decided on the
generators. `th2.vi` alone walks a sampled subset pool. Clause bodies only
decide; `_record` makes every record. It times the body, turns
`EnumerationBudgetExceeded` into `budget-exceeded` with the enumeration's
message, and stamps the notes of `_FROZEN_NOTES`: beyond two carrier sizes
those notes still say "sampled" where a clause is exact, as frozen CLI stdout
holds them. Product clauses walk every combination of fixed factor pools.
`check_homomorphism` scans the subquasimodule node pairs; the join law for
families follows from its pair form once rem1.iii holds, and is not claimed
where it fails.
"""

from __future__ import annotations

import random
from functools import cached_property, partial
from itertools import combinations, combinations_with_replacement, product as iproduct
from time import perf_counter

from ..bitset import iter_bits, mask_of, sort_masks
from ..errors import EnumerationBudgetExceeded
from ..galois import (
    closed_lattice_iso,
    closed_sets,
    closed_subquasimodules,
    is_splitting,
    perp,
    principal_perp,
    product_mask,
    zero_distributivity_defect,
)
from ..lattice import FrozenRecord, Ideal, Record, format_lattice, principal_ideal, set_field
from ..quasimodule import verify_axioms
from ..subquasi import SubQM, all_subquasimodules, close_mask, is_subquasimodule

PASS = "pass"
FAIL = "fail"
HYP = "hypothesis-not-met"
BUDGET = "budget-exceeded"

# The notes of the former sampled subset and pair pools, by clause, with the
# carrier size beyond which a pass or fail keeps its note, although the
# clauses are exact at every size: frozen CLI stdout holds them.
_SUBSET_NOTE = (16, "sampled: subquasimodules, singletons and 1000 seeded subsets")
_PAIR_NOTE = (10, "pairs sampled: subquasimodule pairs plus 1500 seeded pairs")
_FROZEN_NOTES = {
    **dict.fromkeys(("rem1.i", "rem1.iii", "lem4.iv", "prop2", "th2.i", "th2.ii", "lem1"),
                    _SUBSET_NOTE),
    **dict.fromkeys(("rem1.ii", "rem1.iv", "lem4.i", "lem4.ii"), _PAIR_NOTE),
}
# The largest orthogonal set that th2.vii walks.
_MAX_ORTHOGONAL_SIZE = 3


class TheoremReport(Record):
    __slots__ = ("clause", "status", "instance", "witness", "note", "seconds")
    __hash__ = None  # mutable

    def __init__(self, clause, status, instance, witness=None, note=None, seconds=0.0):
        self.clause = clause
        self.status = status
        self.instance = instance
        self.witness = witness
        self.note = note
        self.seconds = seconds

    def to_record(self):
        return {
            "clause": self.clause,
            "status": self.status,
            "instance": self.instance,
            "witness": self.witness,
            "note": self.note,
            "seconds": round(self.seconds, 6),
        }


class Budgets(FrozenRecord):
    """The subquasimodule node budget, and the number of seeded subsets that
    `th2.vi` samples and their seed, the law suite's one seeded draw. Seeded
    runs are reproducible."""

    __slots__ = ("sampled_closures", "max_nodes", "seed")

    def __init__(self, sampled_closures=300, max_nodes=200_000, seed=0):
        set_field(self, "sampled_closures", sampled_closures)
        set_field(self, "max_nodes", max_nodes)
        set_field(self, "seed", seed)


# --------------------------------------------------------------------------
# shared per-instance context

class _Memo(dict):
    """`fn(key)` by key, computed on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Ctx:
    """What the clauses of one instance share: the budgets, the companion,
    closure and subquasimodule memos, and the subquasimodule lattice,
    enumerated on first use. One context can serve check_all and then
    check_homomorphism (`qm verify`), so the enumeration, or its run to the
    node budget, happens once; it lives as long as the caller keeps it."""

    def __init__(self, qm, budgets=None, instance=None):
        self.qm = qm
        self.b = budgets or Budgets()
        self.instance = instance or repr(qm)
        self.m = qm.size
        self.full = qm.full_mask
        self.zmask = 1 << qm.zero
        # bound to qm, not to the context: a bound method would be a cycle
        self.perp = _Memo(partial(_meet, qm))
        self.close = _Memo(partial(close_mask, qm))
        self.subqm = _Memo(partial(is_subquasimodule, qm))
        self.zd_defect = zero_distributivity_defect(qm)
        self._over_budget = None

    # -- derived structures --------------------------------------------------

    @cached_property
    def subs(self):
        """The subquasimodule lattice. Past the node budget every read raises
        EnumerationBudgetExceeded with the message of the one enumeration;
        the message is kept, not the exception, whose traceback would hold
        this context's frame."""
        if self._over_budget is None:
            try:
                return all_subquasimodules(self.qm, max_nodes=self.b.max_nodes)
            except EnumerationBudgetExceeded as exc:
                self._over_budget = str(exc)
        raise EnumerationBudgetExceeded(self._over_budget)

    @cached_property
    def closed(self):
        return closed_subquasimodules(self.qm) if self.zd_defect is None else None

    @cached_property
    def iso(self):
        return closed_lattice_iso(self.qm)

    @cached_property
    def splitting_masks(self):
        return [m for m in self.subs.nodes if is_splitting(self.qm, SubQM(self.qm, m))]

    @cached_property
    def factor_subqm_pools(self):
        """Per factor: the element subsets that product clauses quantify
        over, ascending. A factor subquasimodule is an ideal, the down-set of
        its join (subquasi._holds_on_factors), so they are {down[q] : q in the
        factor}. One non-ideal of each kind the factor has exercises the
        'only if' directions: the factor without bottom; {bottom, q} for the
        first q with an element strictly between, not down-closed; down[q]
        without the first join-reducible q, down-closed but not join-closed.
        """
        lattice = self.qm.lattice
        down, bottom = lattice.down, lattice.bottom
        pools = []
        for factor in self.qm.factors:
            fbits = list(iter_bits(factor.members))
            pool = {down[q] for q in fbits}
            pool.add(factor.members & ~(1 << bottom))
            for q in fbits:
                if down[q].bit_count() > 2:
                    pool.add(1 << bottom | 1 << q)
                    break
            for q in fbits:
                if q != bottom and lattice.join_of(down[q] & ~(1 << q)) == q:
                    pool.add(down[q] & ~(1 << q))
                    break
            pool.discard(0)  # the factor {bottom} without bottom
            pools.append(sorted(pool))
        return pools

    # -- companion machinery ---------------------------------------------------

    @cached_property
    def companions(self):
        """Every value of perp, each mapped to a subset that has it: perp(0),
        then one position at a time the meets with its singleton companion,
        as perp(a | {p}) = perp(a) & perp({p})."""
        out = {self.perp[0]: 0}
        for p in range(self.m):
            single = self.perp[1 << p]
            for c, a in list(out.items()):
                out.setdefault(c & single, a | 1 << p)
        return out

    def dd_of(self, mask):
        return self.perp[self.perp[mask]]

    # -- quantifier pools -------------------------------------------------------

    @cached_property
    def subset_pool(self):
        """The masks quantifying 'for all subsets' clauses: the generators
        and the pairs {zero, q}, ascending, at every size. A set fails rem1.i,
        prop2 or th2.i only if a singleton in it does, and lem4.iv only if a
        singleton or a pair {zero, q} in it does. Those are no larger as
        masks, so the first failure is that of a walk over all subsets."""
        pairs = (self.zmask | 1 << q for q in range(self.m))
        return sorted({*generators(self.m), *pairs})

    def pair_pool(self):
        """The pairs quantifying 'for all pairs of subsets' clauses: each
        unordered pair of generators once, b from a onward, at every size.
        That is exact on a meet of singleton companions: perp is antitone,
        turns unions into meets and makes dd monotone, and rem1.iv holds iff
        perp(0) is the carrier and the singleton relation is symmetric. It is
        symmetric in a and b, as lem4.i and lem4.ii are, and rem1.ii tests
        only (0, b) and (a, a), so the first failure is the ordered scan's."""
        return combinations_with_replacement(generators(self.m), 2)

    # -- witness helpers ---------------------------------------------------------

    def labels(self, mask):
        return set_labels(self.qm, mask)

    def doc(self, **fields):
        return witness_doc(self.qm, **fields)


def set_labels(qm, mask):
    """Report form of a carrier subset: one label list per vector."""
    return [list(v) for v in qm.label_sets(mask)]


def witness_doc(qm, **fields):
    """A replayable witness: the lattice text and factor descriptors of qm,
    then `fields`."""
    return {"lattice": format_lattice(qm.lattice),
            "factors": [factor_descriptor(qm.lattice, f) for f in qm.factors],
            **fields}


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


def factor_descriptor(lattice, ideal):
    """'principal LABEL' for a principal ideal, else 'set LABEL...';
    `_parse_factor` reads it back."""
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
# companion map

def generators(m):
    """The empty set and the m singletons, as masks: every subset is a union
    of them, so a law of meets over members is decided on them."""
    return (0, *(1 << p for p in range(m)))


def _meet(qm, mask):
    """The companion of mask as the AND of the singleton companions of its
    members. Not galois.perp, which stops once the meet is {zero}: that
    assumes zero is orthogonal to every vector, a law this suite checks."""
    value = qm.full_mask
    for p in iter_bits(mask):
        value &= principal_perp(qm, p)
    return value


# --------------------------------------------------------------------------
# clause checks
#
# Each returns (status, witness, note), and _record makes the report. Clause
# ids are stable strings used in reports and documented in the repository
# clause registry.

def _c_axioms(ctx):
    report = verify_axioms(ctx.qm)
    if report.ok:
        return PASS, None, None
    bad = report.failures()[0]
    return FAIL, ctx.doc(axiom=bad.name, witness=list(bad.witness)), None


def _c_rem1_i(ctx):
    for a in ctx.subset_pool:
        if a & ~ctx.dd_of(a):
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    return PASS, None, None


def _c_rem1_ii(ctx):
    for a, b in ctx.pair_pool():
        if a & ~b == 0 and ctx.perp[b] & ~ctx.perp[a]:
            return FAIL, ctx.doc(smaller=ctx.labels(a), larger=ctx.labels(b)), None
    return PASS, None, None


def _c_rem1_iii(ctx):
    for c, a in ctx.companions.items():
        if ctx.dd_of(c) != c:
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    return PASS, None, None


def _c_rem1_iv(ctx):
    for a, b in ctx.pair_pool():
        if (a & ~ctx.perp[b] == 0) != (b & ~ctx.perp[a] == 0):
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


def _c_lem4_i(ctx):
    for a, b in ctx.pair_pool():
        if ctx.perp[a] & ctx.perp[b] != ctx.perp[a | b]:
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


def _c_lem4_ii(ctx):
    for a, b in ctx.pair_pool():
        if ctx.dd_of(a & b) & ~(ctx.dd_of(a) & ctx.dd_of(b)):
            return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


def _c_lem4_iii(ctx):
    if ctx.perp[ctx.full] != ctx.zmask:
        return FAIL, ctx.doc(companion=ctx.labels(ctx.perp[ctx.full])), None
    return PASS, None, None


def _c_lem4_iv(ctx):
    # Any vector orthogonal to itself is zero, so the intersection of a set
    # with its companion lies inside {zero}; it equals {zero} exactly when
    # the set contains the zero vector. Tested in that refined form.
    for a in ctx.subset_pool:
        if a == 0:
            continue
        inter = a & ctx.perp[a]
        if inter & ~ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
        if a & ctx.zmask and inter != ctx.zmask:
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    return PASS, None, None


def _c_lem4_v(ctx):
    if ctx.perp[ctx.zmask] != ctx.full:
        return FAIL, ctx.doc(companion=ctx.labels(ctx.perp[ctx.zmask])), None
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
    defect = ctx.zd_defect
    for a in ctx.subset_pool:
        ok, witness = ctx.subqm[ctx.perp[a]]
        if not ok:
            violation = violation_labels(ctx.qm, witness)
            if defect is None:
                return FAIL, ctx.doc(subset=ctx.labels(a), violation=violation), None
            return HYP, ctx.doc(subset=ctx.labels(a), companion=ctx.labels(ctx.perp[a]),
                                violation=violation), str(defect)
    if defect is not None:
        return HYP, None, f"{defect}; no companion-closure violation in the pool"
    return PASS, None, None


def _hyp_guard(fn):
    def wrapped(ctx):
        if ctx.zd_defect is not None:
            return HYP, None, str(ctx.zd_defect)
        return fn(ctx)

    return wrapped


@_hyp_guard
def _c_th2_i(ctx):
    index = ctx.closed.index
    # That every closed node is a companion needs no check: the nodes are the
    # intersection closure of singleton companions (on a product, cor1 checks
    # that they are the closed sets), and perp a meet of them.
    for a in ctx.subset_pool:
        pa = ctx.perp[a]
        if pa not in index:
            return FAIL, ctx.doc(subset=ctx.labels(a), companion=ctx.labels(pa)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_ii(ctx):
    # That dd(a) lies in every closed n holding a needs no check: once every
    # a lies in dd(a), dd fixes every companion, the closed nodes included,
    # and dd is monotone.
    index = ctx.closed.index
    for a in ctx.subset_pool:
        if a & ~ctx.dd_of(a):
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    for c, a in ctx.companions.items():
        if ctx.perp[c] not in index:
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_iii(ctx):
    nodes = ctx.closed.nodes
    for a in nodes:
        for b in nodes:
            join = ctx.dd_of(a | b)
            if join not in ctx.closed.index or (a | b) & ~join:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    # dd is monotone, so dd(a | b) lies in every closed n holding a | b iff
    # dd(n) lies in n for every closed n
    for n in nodes:
        if ctx.dd_of(n) & ~n:
            label = ctx.labels(n)
            return FAIL, ctx.doc(first=label, second=label, upper=label), None
    if ctx.dd_of(_union(nodes)) != ctx.full:
        return FAIL, ctx.doc(family="all closed"), None
    return PASS, None, None


@_hyp_guard
def _c_th2_iv(ctx):
    # perp is a meet over members, so it is antitone with no check.
    closed = ctx.closed
    nodes = closed.nodes
    for i, a in enumerate(nodes):
        pa = ctx.perp[a]
        if pa not in closed.index or ctx.perp[pa] != a:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
        if closed.perp_map[i] != closed.index[pa]:
            return FAIL, ctx.doc(node=ctx.labels(a)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_v(ctx):
    # The nodes are an intersection closure (cor1 checks a product's), so
    # meets need no check; SubQMLattice raises unless {zero} and Q are nodes.
    index = ctx.closed.index
    nodes = ctx.closed.nodes
    for a in nodes:
        for b in nodes:
            if ctx.dd_of(a | b) not in index:
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), None
    return PASS, None, None


@_hyp_guard
def _c_th2_vi(ctx):
    pool = {ctx.zmask, ctx.full, *generators(ctx.m)}
    try:
        pool.update(ctx.subs.nodes)
    except EnumerationBudgetExceeded:
        pass  # the pool without the nodes
    rng = random.Random(ctx.b.seed + 4)
    pool.update(rng.getrandbits(ctx.m) for _ in range(ctx.b.sampled_closures))
    note = f"sampled over {len(pool)} subsets"
    for a in sorted(pool):
        if ctx.perp[a] != ctx.perp[ctx.close[a]]:
            return FAIL, ctx.doc(subset=ctx.labels(a)), note
    return PASS, None, note


@_hyp_guard
def _c_th2_vii(ctx):
    sets = _orthogonal_sets(ctx, _MAX_ORTHOGONAL_SIZE)
    note = f"orthogonal sets up to size {_MAX_ORTHOGONAL_SIZE} ({len(sets)} sets)"
    for cset in sets:
        cmask = mask_of(cset)
        for r in range(len(cset) + 1):
            for bsub in combinations(cset, r):
                bmask = mask_of(bsub)
                left = ctx.close[cmask & ~bmask]
                if left & ~ctx.perp[ctx.close[bmask]]:
                    return FAIL, ctx.doc(orthogonal=ctx.labels(cmask),
                                         removed=ctx.labels(bmask)), note
    return PASS, None, note


def _c_lem6_i(ctx):
    nodes = ctx.subs.nodes
    qm = ctx.qm
    # a (factor, projection) pair seen before has passed, so each distinct
    # pair is tested once and the first failing node stays the same
    seen = set()
    for mask in nodes:
        for i in range(len(qm.factors)):
            em = qm.project(mask, i)
            if (i, em) in seen:
                continue
            seen.add((i, em))
            fqm = qm.factor_qm(i)
            ok, _ = is_subquasimodule(fqm, product_mask(fqm, [em]))
            if not ok:
                return FAIL, ctx.doc(subquasimodule=ctx.labels(mask), factor=i), None
    return PASS, None, None


def _c_lem6_ii(ctx):
    return _product_iff(ctx, lambda fqm, fmask: is_subquasimodule(fqm, fmask)[0],
                        lambda mask: ctx.subqm[mask][0])


def _c_lem1(ctx):
    # Both sides are meets over the members of a: perp(a) by definition, the
    # product side because projection, factor companion and product each turn
    # a union into an intersection. So they agree on every subset iff they
    # agree on the empty set and every singleton; as these come first in any
    # ascending pool, the first failure is also the same.
    qm = ctx.qm
    fqms = [qm.factor_qm(i) for i in range(len(qm.factors))]
    for a in generators(ctx.m):
        expect = product_mask(qm, [
            fqm.project(perp(fqm, product_mask(fqm, [qm.project(a, i)])), 0)
            for i, fqm in enumerate(fqms)])
        if ctx.perp[a] != expect:
            return FAIL, ctx.doc(subset=ctx.labels(a)), None
    return PASS, None, None


@_hyp_guard
def _c_th3(ctx):
    # the closed sets by definition: a product's closed nodes rest on th3
    qm = ctx.qm
    iso = ctx.iso
    factor_closed = [set(f) for f in iso.factor_closed]
    k = len(qm.factors)
    closed = closed_sets(qm)
    for mask in sort_masks(closed, qm.size):
        parts = [qm.project(mask, i) for i in range(k)]
        if (any(em not in factor_closed[i] for i, em in enumerate(parts))
                or product_mask(qm, parts) != mask):
            return FAIL, ctx.doc(node=ctx.labels(mask)), None
    for choice, image in iso.assignments:
        if image not in closed:
            labels = [list(qm.lattice.labels(m)) for m in choice]
            return FAIL, ctx.doc(factor_choice=labels), None
    return PASS, None, None


@_hyp_guard
def _c_cor1(ctx):
    iso = ctx.iso
    if not iso.is_isomorphism:
        return FAIL, ctx.doc(bijective=iso.bijective), None
    return PASS, None, None


def _c_splitting_subset_closed(ctx):
    for mask in ctx.splitting_masks:
        if ctx.dd_of(mask) != mask:
            return FAIL, ctx.doc(splitting=ctx.labels(mask)), None
    return PASS, None, None


@_hyp_guard
def _c_splitting_perp(ctx):
    qm = ctx.qm
    for mask in ctx.splitting_masks:
        companion = ctx.perp[mask]
        ok, _ = ctx.subqm[companion]
        if not ok or not is_splitting(qm, SubQM(qm, companion)):
            return FAIL, ctx.doc(splitting=ctx.labels(mask),
                                 companion=ctx.labels(companion)), None
    return PASS, None, None


def _c_splitting_product(ctx):
    def factor_side(fqm, fmask):
        ok, _ = is_subquasimodule(fqm, fmask)
        return ok and is_splitting(fqm, SubQM(fqm, fmask))

    def product_side(mask):
        ok, _ = ctx.subqm[mask]
        return ok and is_splitting(ctx.qm, SubQM(ctx.qm, mask))

    return _product_iff(ctx, factor_side, product_side)


def _product_iff(ctx, factor_side, product_side):
    """Check: product passes iff every factor component passes, on every
    combination of the factor pools. A factor's verdict depends on its index
    and element mask alone, so each member of each factor pool is decided
    once."""
    qm = ctx.qm
    pools = ctx.factor_subqm_pools
    passing = []
    for i, pool in enumerate(pools):
        fqm = qm.factor_qm(i)
        passing.append({em for em in pool if factor_side(fqm, product_mask(fqm, [em]))})
    for choice in iproduct(*pools):
        left = product_side(product_mask(qm, choice))
        right = all(em in ok for ok, em in zip(passing, choice))
        if left != right:
            labels = [list(qm.lattice.labels(em)) for em in choice]
            return FAIL, ctx.doc(factor_choice=labels, product=left, factors_pass=right), None
    return PASS, None, None


def _orthogonal_sets(ctx, max_size):
    """Pairwise orthogonal position tuples of 1..max_size members, ascending,
    in depth-first order. Uses an explicit stack: a recursive closure over
    the context is a reference cycle that keeps the context (and its companion
    cache) alive until the cycle collector runs."""
    qm = ctx.qm
    out = []
    pairs_ok = [[qm.orthogonal(p, q) for q in range(ctx.m)] for p in range(ctx.m)]
    stack = [(0, ())]
    while stack:
        start, cur = stack.pop()
        if cur:
            out.append(cur)
        if len(cur) == max_size:
            continue
        for p in reversed(range(start, ctx.m)):
            if all(pairs_ok[p][q] for q in cur):
                stack.append((p + 1, cur + (p,)))
    return out


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


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


def _context(qm, budgets, instance, ctx):
    if ctx is None:
        return _Ctx(qm, budgets, instance)
    if ctx.qm is not qm:
        raise ValueError("the context belongs to another quasimodule")
    return ctx


def _record(ctx, clause, fn):
    """The report of one clause, which fn(ctx) decides as (status, witness,
    note): the one place a TheoremReport is made. It times fn, turns
    EnumerationBudgetExceeded into `budget-exceeded` with the enumeration's
    message, and gives a pass or fail without a note the frozen note of
    _FROZEN_NOTES[clause] beyond that entry's carrier size."""
    start = perf_counter()
    try:
        status, witness, note = fn(ctx)
    except EnumerationBudgetExceeded as exc:
        status, witness, note = BUDGET, None, str(exc)
    frozen = _FROZEN_NOTES.get(clause)
    if frozen and note is None and status in (PASS, FAIL) and ctx.m > frozen[0]:
        note = frozen[1]
    return TheoremReport(clause, status, ctx.instance, witness, note,
                         perf_counter() - start)


def check_all(qm, budgets=None, instance=None, ctx=None):
    """Run every registered law clause against one canonical quasimodule.

    `ctx`, a context on qm (then budgets and instance are its own), is
    reused and keeps what the clauses computed, for check_homomorphism.
    """
    ctx = _context(qm, budgets, instance, ctx)
    return [_record(ctx, clause, fn) for clause, fn in _CLAUSES]


def check_homomorphism(qm, budgets=None, instance=None, ctx=None):
    """Conditional homomorphism law for the double-companion map.

    If the double companion distributes over intersections of subquasimodule
    families, it is a complete homomorphism from the subquasimodule lattice
    onto the closed one. The intersection hypothesis is tested over all node
    pairs; when it fails, the report carries the witness pair and claims
    nothing further. The conclusion is tested on all node pairs and on the
    bounds; it holds for every family of joins once A*** = A* (rem1.iii),
    and where that fails the report is hypothesis-not-met. `ctx` is as for
    check_all; the one check_all used brings its subquasimodule lattice, or
    budget message.
    """
    ctx = _context(qm, budgets, instance, ctx)
    if ctx.zd_defect is not None:
        raise ctx.zd_defect
    return _record(ctx, "homomorphism", _homomorphism)


def _homomorphism(ctx):
    nodes = ctx.subs.nodes
    # The nodes are closed under intersection, so the pair hypothesis over
    # all node pairs gives it for every family by induction on its size:
    # dd(a & b & c) = dd(a & b) & dd(c) = dd(a) & dd(b) & dd(c). Neither the
    # hypothesis nor the intersection half of the conclusion needs families.
    for a in nodes:
        for b in nodes:
            if ctx.dd_of(a & b) != ctx.dd_of(a) & ctx.dd_of(b):
                return (HYP, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)),
                        "intersection hypothesis fails; homomorphism not claimed")

    note = f"hypothesis holds over {len(nodes)}^2 pairs"
    # dd(perp a) and perp(dd a) are both perp^3(a), so the complement law
    # needs no check.
    for a in nodes:
        for b in nodes:
            join = ctx.close[a | b]
            if ctx.dd_of(join) != ctx.dd_of(ctx.dd_of(a) | ctx.dd_of(b)):
                return FAIL, ctx.doc(first=ctx.labels(a), second=ctx.labels(b)), note
    if ctx.dd_of(ctx.zmask) != ctx.zmask or ctx.dd_of(ctx.full) != ctx.full:
        return FAIL, ctx.doc(), note
    # The join law for a family x1..xk follows from its pair form by
    # induction once perp^3 = perp (rem1.iii). n = close(x1 | ... | x(k-1))
    # is a node, so the pair law gives dd(close(n | xk)) = dd(dd n | dd xk),
    # and dd(dd U | V) = perp(perp^3 U & perp V) = dd(U | V) with
    # U = dd x1 | ... | dd x(k-1), the induction hypothesis for dd n.
    # A broken companion map need not give perp^3 = perp.
    for c, a in ctx.companions.items():
        if ctx.dd_of(c) != c:
            return (HYP, ctx.doc(subset=ctx.labels(a)),
                    f"{note}; A*** = A* fails, so the family join law is not claimed")
    return PASS, None, note
