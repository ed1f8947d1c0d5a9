"""Bundled reference instances with frozen golden data.

Each instance rebuilds a known configuration from scratch and diffs every
computed structure against the expected values embedded here: subquasimodule
families with their canonical P-numbering, companion tables, closed and
splitting families, Boolean shapes and bases. Any difference is a failure.
"""

from __future__ import annotations

from time import perf_counter

from ..bitset import bit_key, mask_of, sort_masks
from ..errors import UnknownInstance
from ..galois import (
    closed_lattice_iso,
    closed_subquasimodules,
    is_closed,
    is_splitting,
    perp,
    principal_perp,
    sum_set,
)
from ..lattice import (
    builtin,
    builtin_covers,
    build_lattice,
    is_0_distributive,
    is_distributive,
    is_modular,
    principal_ideal,
)
from ..quasimodule import canonical
from ..subquasi import SubQM, all_subquasimodules, generate, is_basis, is_subquasimodule
from . import REFERENCE_INSTANCES
from .laws import FAIL, PASS, TheoremReport

# -- golden data --------------------------------------------------------------

# N5 x [0,a]: the complete subquasimodule family in canonical order
# (ascending size, then member positions), P1 through P20.
EX1_SUBQUASIMODULES = (
    (("0", "0"),),
    (("0", "0"), ("0", "a")),
    (("0", "0"), ("a", "0")),
    (("0", "0"), ("a", "a")),
    (("0", "0"), ("b", "0")),
    (("0", "0"), ("0", "a"), ("a", "a")),
    (("0", "0"), ("a", "0"), ("a", "a")),
    (("0", "0"), ("a", "0"), ("c", "0")),
    (("0", "0"), ("a", "a"), ("c", "a")),
    (("0", "0"), ("0", "a"), ("a", "0"), ("a", "a")),
    (("0", "0"), ("0", "a"), ("a", "a"), ("c", "a")),
    (("0", "0"), ("0", "a"), ("b", "0"), ("b", "a")),
    (("0", "0"), ("0", "a"), ("a", "0"), ("a", "a"), ("c", "a")),
    (("0", "0"), ("a", "0"), ("a", "a"), ("c", "0"), ("c", "a")),
    (("0", "0"), ("a", "0"), ("b", "0"), ("c", "0"), ("1", "0")),
    (("0", "0"), ("a", "a"), ("b", "0"), ("c", "a"), ("1", "a")),
    (("0", "0"), ("0", "a"), ("a", "0"), ("a", "a"), ("c", "0"), ("c", "a")),
    (("0", "0"), ("0", "a"), ("a", "a"), ("b", "0"), ("b", "a"), ("c", "a"), ("1", "a")),
    (("0", "0"), ("a", "0"), ("a", "a"), ("b", "0"), ("c", "0"), ("c", "a"),
     ("1", "0"), ("1", "a")),
    (("0", "0"), ("0", "a"), ("a", "0"), ("a", "a"), ("b", "0"), ("b", "a"),
     ("c", "0"), ("c", "a"), ("1", "0"), ("1", "a")),
)

# companion and double companion of each P_k, by P-number
EX1_PERP = (20, 15, 12, 5, 17, 5, 5, 12, 5, 5, 5, 8, 5, 5, 2, 1, 5, 1, 1, 1)
EX1_PERP_PERP = (1, 2, 8, 17, 5, 17, 17, 8, 17, 17, 17, 12, 17, 17, 15, 20, 17, 20, 20, 20)

EX1_CLOSED = (1, 2, 5, 8, 12, 15, 17, 20)

EX1_BASES = (
    ((("0", "a"), ("1", "0")),
     (((("0", "a"), ("1", "0")), 20), ((("0", "a"),), 2), ((("1", "0"),), 15))),
    ((("0", "a"), ("b", "0"), ("c", "0")),
     (((("0", "a"), ("b", "0"), ("c", "0")), 20),
      ((("0", "a"), ("b", "0")), 12),
      ((("0", "a"), ("c", "0")), 17),
      ((("b", "0"), ("c", "0")), 15))),
)

# N5 as a one-factor quasimodule over itself
N5_ELEMENT_PERPS = {
    "0": ("0", "a", "b", "c", "1"),
    "a": ("0", "b"),
    "b": ("0", "a", "c"),
    "c": ("0", "b"),
    "1": ("0",),
}
N5_CLOSED = (("0",), ("0", "b"), ("0", "a", "c"), ("0", "a", "b", "c", "1"))

# M3 x [0,a]
M3_COMPANION_OF_SQUARE = (("0", "0"), ("b", "0"), ("c", "0"))
M3_BASIS = (("0", "a"), ("a", "0"), ("b", "0"))
M3_BASIS_SUBSETS = (
    ((("0", "a"), ("a", "0")),
     (("0", "0"), ("0", "a"), ("a", "0"), ("a", "a"))),
    ((("0", "a"), ("b", "0")),
     (("0", "0"), ("0", "a"), ("b", "0"), ("b", "a"))),
    ((("a", "0"), ("b", "0")),
     (("0", "0"), ("a", "0"), ("b", "0"), ("c", "0"), ("1", "0"))),
)


# -- helpers ------------------------------------------------------------------

def _mask_from_labels(qm, label_tuples):
    return mask_of(qm.vector(*labels) for labels in label_tuples)


def is_boolean_shape(masks):
    """Whether a family of sets under inclusion forms a Boolean algebra 2^k."""
    nodes = sorted(masks, key=bit_key)
    bottom = nodes[0]
    if any(bottom & ~n for n in nodes):
        return False
    atoms = [n for n in nodes if n != bottom and not any(
        m != bottom and m != n and m & ~n == 0 for m in nodes)]
    if len(nodes) != 1 << len(atoms):
        return False
    sig = {n: mask_of(i for i, a in enumerate(atoms) if a & ~n == 0) for n in nodes}
    if len(set(sig.values())) != len(nodes):
        return False
    return all(((x & ~y) == 0) == ((sig[x] & ~sig[y]) == 0)
               for x in nodes for y in nodes)


def ex1_qm():
    lattice = builtin("n5")
    return canonical(lattice, (principal_ideal(lattice, lattice.top),
                               principal_ideal(lattice, lattice.index("a"))))


def m3_qm():
    lattice = builtin("m3")
    return canonical(lattice, (principal_ideal(lattice, lattice.top),
                               principal_ideal(lattice, lattice.index("a"))))


def fig5_qm():
    lattice = builtin("fig5")
    return canonical(lattice, (principal_ideal(lattice, lattice.top),
                               principal_ideal(lattice, lattice.top)))


# -- instance runners ----------------------------------------------------------
#
# Each yields (check, holds, detail) per golden check; reproduce_reference
# makes the reports.

def _run_ex2():
    lattice = builtin("n5")
    yield "build-roundtrip", build_lattice(*builtin_covers("n5")) == lattice, None
    ok0, _ = is_0_distributive(lattice)
    yield "zero-distributive", ok0, None
    okm, witness = is_modular(lattice)
    yield ("non-modular", not okm and witness == tuple(lattice.index(x) for x in "abc"),
           {"witness": witness})


def _ex1_bases(qm, golden_masks):
    """(holds, detail): each EX1_BASES entry is an orthogonal basis, and its
    subsets generate the golden P-numbers."""
    full_sub = SubQM(qm, qm.full_mask)
    for base_labels, breakdown in EX1_BASES:
        positions = [qm.vector(*v) for v in base_labels]
        orth = all(qm.orthogonal(p, q) for p, q in
                   [(a, b) for i, a in enumerate(positions) for b in positions[i + 1:]])
        if not (orth and is_basis(full_sub, positions)):
            return False, {"basis": base_labels}
        for subset_labels, p_number in breakdown:
            got = generate(qm, _mask_from_labels(qm, subset_labels)).members
            if got != golden_masks[p_number - 1]:
                return False, {"generators": subset_labels,
                               "generated": qm.label_sets(got),
                               "expected": f"P{p_number}"}
    return True, None


def _run_ex1():
    qm = ex1_qm()
    subs = all_subquasimodules(qm)
    golden_masks = [_mask_from_labels(qm, vs) for vs in EX1_SUBQUASIMODULES]
    extra = [qm.label_sets(m) for m in subs.nodes if m not in set(golden_masks)]
    missing = [qm.label_sets(m) for m in golden_masks if m not in set(subs.nodes)]
    diff = {"count": len(subs), "not_in_golden": extra, "not_computed": missing}
    yield "subquasimodule-count", len(subs) == 20, diff
    yield "subquasimodule-sets", list(subs.nodes) == golden_masks, diff

    table_ok = True
    diff = None
    for k, mask in enumerate(golden_masks):
        companion = perp(qm, mask)
        double = perp(qm, companion)
        want_p = golden_masks[EX1_PERP[k] - 1]
        want_pp = golden_masks[EX1_PERP_PERP[k] - 1]
        if companion != want_p or double != want_pp:
            table_ok = False
            diff = {"row": f"P{k + 1}",
                    "companion": qm.label_sets(companion),
                    "double": qm.label_sets(double)}
            break
    yield "companion-table", table_ok, diff

    closed = closed_subquasimodules(qm)
    want_closed = [golden_masks[k - 1] for k in EX1_CLOSED]
    yield ("closed-family", list(closed.nodes) == sort_masks(want_closed, qm.size),
           {"computed": [qm.label_sets(m) for m in closed.nodes]})

    iso = closed_lattice_iso(qm)
    yield ("closed-boolean",
           len(closed) == 8 and is_boolean_shape(closed.nodes) and iso.is_isomorphism,
           {"count": len(closed)})

    yield ("orthogonal-bases", *_ex1_bases(qm, golden_masks))

    lattice = qm.lattice
    single = canonical(lattice, (principal_ideal(lattice, lattice.top),))
    perps_ok = all(
        principal_perp(single, single.vector(lab)) ==
        mask_of(single.vector(e) for e in want)
        for lab, want in N5_ELEMENT_PERPS.items())
    closed_n5 = closed_subquasimodules(single)
    want_n5 = sort_masks((mask_of(single.vector(e) for e in labels) for labels in N5_CLOSED),
                         single.size)
    yield ("scalar-lattice-companions",
           perps_ok and list(closed_n5.nodes) == want_n5 and is_boolean_shape(closed_n5.nodes),
           None)


def _run_m3():
    lattice = builtin("m3")
    ok0, witness = is_0_distributive(lattice)
    expected = tuple(lattice.index(x) for x in "abc")
    yield "not-zero-distributive", not ok0 and witness == expected, {"witness": witness}
    okm, _ = is_modular(lattice)
    okd, _ = is_distributive(lattice)
    yield "modular-non-distributive", okm and not okd, None

    qm = m3_qm()
    a = lattice.index("a")
    square = mask_of(p for p, u in enumerate(qm.carrier)
                     if lattice.le(u[0], a) and lattice.le(u[1], a))
    ok_sub, _ = is_subquasimodule(qm, square)
    companion = perp(qm, square)
    want_companion = _mask_from_labels(qm, M3_COMPANION_OF_SQUARE)
    holds, violation = is_subquasimodule(qm, companion)
    want_violation = ("add", qm.vector("b", "0"), qm.vector("c", "0"),
                      qm.vector("1", "0"))
    yield ("companion-not-subquasimodule",
           ok_sub and companion == want_companion and not holds
           and violation == want_violation,
           {"companion": qm.label_sets(companion), "violation": violation})

    positions = [qm.vector(*v) for v in M3_BASIS]
    orth = all(qm.orthogonal(p, q)
               for i, p in enumerate(positions) for q in positions[i + 1:])
    basis_ok = orth and is_basis(SubQM(qm, qm.full_mask), positions)
    gen_ok = True
    diff = None
    for subset_labels, product_labels in M3_BASIS_SUBSETS:
        got = generate(qm, _mask_from_labels(qm, subset_labels)).members
        want = _mask_from_labels(qm, product_labels)
        if got != want or got == qm.full_mask:
            gen_ok = False
            diff = {"generators": subset_labels, "generated": qm.label_sets(got)}
            break
    yield "orthogonal-basis", basis_ok and gen_ok, diff


def _run_fig5():
    lattice = builtin("fig5")
    ok0, _ = is_0_distributive(lattice)
    okm, _ = is_modular(lattice)
    yield "zero-distributive-non-modular", lattice.n == 6 and ok0 and not okm, None

    qm = fig5_qm()
    b = lattice.index("b")
    c = lattice.index("c")
    p_mask = mask_of(p for p, u in enumerate(qm.carrier)
                     if lattice.le(u[0], b) and lattice.le(u[1], c))
    want_companion = mask_of(p for p, u in enumerate(qm.carrier)
                             if lattice.le(u[0], c) and lattice.le(u[1], b))
    ok_sub, _ = is_subquasimodule(qm, p_mask)
    companion = perp(qm, p_mask)
    yield ("closed", ok_sub and companion == want_companion and is_closed(qm, p_mask),
           {"companion": qm.label_sets(companion)})

    sums = sum_set(qm, p_mask, companion)
    top_vec = qm.vector("1", "1")
    splitting = is_splitting(qm, SubQM(qm, p_mask))
    yield ("not-splitting", not splitting and not sums >> top_vec & 1,
           {"sum": qm.label_sets(sums)})


def _run_n5_power():
    lattice = builtin("n5")
    for n in (1, 2):
        qm = canonical(lattice, tuple(principal_ideal(lattice, lattice.top)
                                      for _ in range(n)))
        closed = closed_subquasimodules(qm)
        iso = closed_lattice_iso(qm)
        yield (f"boolean-{n}",
               len(closed) == 1 << (2 * n) and is_boolean_shape(closed.nodes)
               and iso.is_isomorphism,
               {"count": len(closed)})


_RUNNERS = {
    "ex2": _run_ex2,
    "m3": _run_m3,
    "ex1": _run_ex1,
    "fig5": _run_fig5,
    "n5-power": _run_n5_power,
}


def reproduce_reference(instance):
    """Replay one bundled reference instance against its golden data: one
    report per golden check, timed from the previous one, with its detail
    kept only on a failure."""
    runner = _RUNNERS.get(instance)
    if runner is None:
        raise UnknownInstance(
            f"unknown instance {instance!r}; available: {', '.join(REFERENCE_INSTANCES)}")
    reports = []
    start = perf_counter()
    for check, holds, detail in runner():
        reports.append(TheoremReport(f"{instance}.{check}", PASS if holds else FAIL, instance,
                                     None if holds else detail, None, perf_counter() - start))
        start = perf_counter()
    return reports
