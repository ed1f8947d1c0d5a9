"""In-memory span recorder for the traced benchmark run.

The recorder wraps selected public functions of the ``quasimodules``
package at every module attribute that binds them (``close_mask`` is bound
in ``quasimodules.subquasi`` and in ``quasimodules.verify.laws``, for
example), so calls made through any import path are recorded. Per-element
operations (``CanonicalQM.add``, ``CanonicalQM.smul``, ``iter_bits``) are
never wrapped: their call counts would swamp the spans.

A span is (name, start, end, parent). Spans stay in parallel arrays until
the run ends; :meth:`Recorder.pass_metrics` turns them into per-layer self
times and counts, and :meth:`Recorder.write` saves them as TSV.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from bisect import bisect_right
from time import perf_counter

# module -> public functions to wrap. Only these are traced; everything else
# is charged to the self time of the nearest traced caller.
TRACED = {
    "quasimodules.lattice": ("build_lattice", "builtin", "parse_lattice", "load_lattice",
                             "format_lattice", "principal_ideal", "is_ideal",
                             "is_0_distributive", "is_modular", "is_distributive"),
    "quasimodules.quasimodule": ("canonical", "parse_qm", "read_qm_file", "verify_axioms"),
    "quasimodules.subquasi": ("close_mask", "is_subquasimodule", "all_subquasimodules",
                              "find_bases"),
    "quasimodules.galois": ("principal_perp", "perp", "closed_sets", "closed_subquasimodules",
                            "closed_lattice_iso", "is_splitting",
                            "factor_zero_distributivity"),
    "quasimodules.verify.laws": ("check_all", "check_homomorphism"),
    "quasimodules.verify.instances": ("reproduce_reference",),
    "quasimodules.verify.search": ("counterexample_search",),
    "quasimodules.cli": ("main",),
}

# Clause ids of check_all, in registry order. Kept here rather than read from
# the library so the per-layer metric names stay fixed across changes.
CLAUSE_IDS = (
    "axioms", "rem1.i", "rem1.ii", "rem1.iii", "rem1.iv",
    "lem4.i", "lem4.ii", "lem4.iii", "lem4.iv", "lem4.v",
    "separation", "prop2",
    "th2.i", "th2.ii", "th2.iii", "th2.iv", "th2.v", "th2.vi", "th2.vii",
    "lem6.i", "lem6.ii", "lem1", "th3", "cor1",
    "splitting-subset-closed", "prop-splitting-perp", "prop-splitting-product",
)

# per-layer self-time metric -> traced functions whose self time it sums
SELF_TIME = {
    "lattice.build_s": ("build_lattice", "builtin", "parse_lattice", "load_lattice",
                        "format_lattice", "principal_ideal"),
    "lattice.checks_s": ("is_0_distributive", "is_modular", "is_distributive", "is_ideal"),
    "quasimodule.canonical_s": ("canonical", "parse_qm", "read_qm_file"),
    "quasimodule.verify_axioms_s": ("verify_axioms",),
    "subquasi.enumerate_s": ("all_subquasimodules",),
    "subquasi.close_mask_s": ("close_mask",),
    "subquasi.is_subquasimodule_s": ("is_subquasimodule",),
    "subquasi.find_bases_s": ("find_bases",),
    "galois.principal_perp_s": ("principal_perp",),
    "galois.perp_s": ("perp",),
    "galois.closed_sets_s": ("closed_sets",),
    "galois.closed_subquasimodules_s": ("closed_subquasimodules",),
    "galois.closed_iso_s": ("closed_lattice_iso",),
    "galois.is_splitting_s": ("is_splitting",),
    "galois.factor_zero_distributivity_s": ("factor_zero_distributivity",),
    "verify.homomorphism_s": ("check_homomorphism",),
    "verify.reference_s": ("reproduce_reference",),
    "verify.search_s": ("counterexample_search",),
    "cli.main_s": ("main",),
}
SELF_TIME.update({f"verify.clause.{c}_s": (f"clause:{c}",) for c in CLAUSE_IDS})

# per-layer call-count metric -> traced functions whose calls it counts
CALLS = {
    "lattice.build_calls": ("build_lattice",),
    "lattice.checks_calls": ("is_0_distributive", "is_modular", "is_distributive", "is_ideal"),
    "quasimodule.canonical_calls": ("canonical",),
    "subquasi.enumerate_calls": ("all_subquasimodules",),
    "subquasi.close_mask_calls": ("close_mask",),
    "subquasi.is_subquasimodule_calls": ("is_subquasimodule",),
    "galois.principal_perp_calls": ("principal_perp",),
    "galois.perp_calls": ("perp",),
    "galois.is_splitting_calls": ("is_splitting",),
}

# per-layer sum of a value recorded per span (see _value_of)
VALUES = {
    "quasimodule.vectors_built": "canonical",
    "subquasi.nodes": "all_subquasimodules",
    "galois.closed_nodes": "closed_sets",
    "galois.principal_perp_distinct": "principal_perp",
}


class Recorder:
    """Collects spans from wrapped library functions and harness sections."""

    def __init__(self):
        self.names = []          # span name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")  # per-span count, see _value_of
        self._reports = {}       # span index -> check_all reports
        self._stack = [-1]
        self._patched = []       # (module, attribute, original)
        self._pinned = {}        # id(qm) -> qm, so ids stay unique while tracing
        self._seen_pperp = set()

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- recording -----------------------------------------------------------

    def open(self, name):
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.value.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        fid = self._id(name)
        starts, ends, parents, ids, values = (self.start, self.end, self.parent,
                                              self.name_id, self.value)
        stack = self._stack
        value_of = self._value_of(name)

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(fid)
            parents.append(stack[-1])
            values.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if value_of is not None:
                values[i] = value_of(i, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _value_of(self, name):
        if name in ("all_subquasimodules", "closed_sets"):
            return lambda i, args, result: len(result)
        if name == "canonical":
            return lambda i, args, result: result.size
        if name == "check_all":
            def keep(i, args, result):
                # a copy: `qm verify` appends its homomorphism report later
                self._reports[i] = list(result)
                return 0
            return keep
        if name == "principal_perp":
            def distinct(i, args, result):
                qm, p = args[0], args[1]
                self._pinned[id(qm)] = qm
                key = (id(qm), p)
                if key in self._seen_pperp:
                    return 0
                self._seen_pperp.add(key)
                return 1
            return distinct
        return None

    def install(self):
        """Wrap every traced function at each module attribute bound to it."""
        originals = {}
        for modname, fnames in TRACED.items():
            mod = importlib.import_module(modname)
            for fname in fnames:
                originals[id(getattr(mod, fname))] = fname
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "quasimodules"
                                   or modname.startswith("quasimodules.")):
                continue
            for attr, obj in list(vars(mod).items()):
                fname = originals.get(id(obj))
                if fname is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(fname, obj)
                setattr(mod, attr, wrappers[id(obj)])
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def pass_metrics(self, lo):
        """Per-layer metrics of the spans recorded since span index lo."""
        self._split_clauses(lo)
        self._pinned.clear()
        self._seen_pperp.clear()
        return self._layer_metrics(lo)

    def _split_clauses(self, lo):
        """Give each check_all span one child span per clause.

        check_all reports each clause's duration; the clauses run back to
        back and the last one ends just before check_all returns, so the
        windows are laid out backwards from the span's end. Spans that ran
        inside check_all move under the clause window holding their midpoint.
        A lazily built structure (the subquasimodule lattice, say) therefore
        lands in the clause that first needed it, as its own child span, and
        is excluded from that clause's self time.
        """
        recorded = len(self.start)
        windows = {}
        for c, reports in self._reports.items():
            his, t = [], self.end[c]
            for rep in reversed(reports):
                his.append(t)
                t -= rep.seconds
            his.reverse()
            los = [hi - rep.seconds for hi, rep in zip(his, reports)]
            ids = [self._append(f"clause:{rep.clause}", c, a, b)
                   for rep, a, b in zip(reports, los, his)]
            windows[c] = (los, his, ids)
        self._reports.clear()
        for i in range(lo, recorded):
            w = windows.get(self.parent[i])
            if w is None:
                continue
            los, his, ids = w
            mid = (self.start[i] + self.end[i]) / 2
            k = bisect_right(los, mid) - 1
            if k >= 0 and mid <= his[k]:
                self.parent[i] = ids[k]

    def _append(self, name, parent, start, end):
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.value.append(0)
        self.start.append(start)
        self.end.append(end)
        return i

    def _self_times(self, lo):
        """Per span from lo on: its duration minus its child spans' durations."""
        n = len(self.start)
        child = [0.0] * (n - lo)
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(lo, n):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i - lo] for i in range(lo, n)]

    def _ancestors(self, i):
        p = self.parent[i]
        while p >= 0:
            yield p
            p = self.parent[p]

    def _calls_inside(self, span_range, fname, outer):
        """Calls of fname in span_range made below a call of outer."""
        fid, oid = self._ids.get(fname), self._ids.get(outer)
        return sum(1 for i in span_range if self.name_id[i] == fid
                   and any(self.name_id[a] == oid for a in self._ancestors(i)))

    def _layer_metrics(self, lo):
        span_range = range(lo, len(self.start))
        self_t = self._self_times(lo)
        by_name_self = {}
        by_name_calls = {}
        by_name_value = {}
        for i in span_range:
            name = self.names[self.name_id[i]]
            by_name_self[name] = by_name_self.get(name, 0.0) + self_t[i - lo]
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            by_name_value[name] = by_name_value.get(name, 0) + self.value[i]
        out = {}
        for metric, fnames in SELF_TIME.items():
            out[metric] = sum(by_name_self.get(f, 0.0) for f in fnames)
        for metric, fnames in CALLS.items():
            out[metric] = sum(by_name_calls.get(f, 0) for f in fnames)
        for metric, fname in VALUES.items():
            out[metric] = by_name_value.get(fname, 0)
        enum_closures = self._calls_inside(span_range, "close_mask", "all_subquasimodules")
        out["subquasi.close_yield"] = (out["subquasi.nodes"] / enum_closures
                                       if enum_closures else 0.0)
        out["verify.search_instances"] = self._calls_inside(
            span_range, "canonical", "counterexample_search")
        return out

    def calls_under(self, span, fname):
        """(calls, summed span values) of fname below one span."""
        fid = self._ids.get(fname)
        calls = total = 0
        for i in range(span + 1, len(self.start)):
            if self.name_id[i] == fid and span in self._ancestors(i):
                calls += 1
                total += self.value[i]
        return calls, total

    def write(self, path):
        """Save every span as TSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            names, ids = self.names, self.name_id
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[ids[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
