"""Command-line front end.

Subcommands::

    quasimod lattice check FILE
    quasimod qm ACTION FILE [--max-basis-size N] [--budget N] [--format F]
    quasimod export dot FILE --which lattice|subs|closed [-o OUT]
    quasimod verify [--instance NAME | --search --max-size N --seed S --drop HYP]

FILE arguments accept a path or ``builtin:NAME``. Exit codes: 0 success,
1 verification failure, 2 input error. Standard output is byte-deterministic
for fixed input, flags and seed; report files additionally carry timings.

Each command imports the library modules it runs, so `lattice check` loads
no quasimodule code and no law suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitset import iter_bits
from .errors import EnumerationBudgetExceeded, Error, NotZeroDistributive
from .lattice import (
    is_0_distributive,
    is_distributive,
    is_modular,
    load_lattice,
    principal_ideal,
    read_text,
)
from .verify import DROPPABLE, MAX_LATTICE_SIZE, REFERENCE_INSTANCES

QM_ACTIONS = ("subs", "closed", "splitting", "perp-table", "bases", "verify")


def _non_negative(text):
    """argparse type: an int that is at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quasimod",
        description="Finite bounded lattices and quasimodules over them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="lattice file operations")
    lat_sub = p_lat.add_subparsers(dest="lattice_command", required=True)
    p_check = lat_sub.add_parser("check", help="validate and classify a lattice")
    p_check.add_argument("file")

    p_qm = sub.add_parser("qm", help="quasimodule computations")
    p_qm.add_argument("action", choices=QM_ACTIONS)
    p_qm.add_argument("file")
    p_qm.add_argument("--max-basis-size", type=_non_negative, default=3)
    p_qm.add_argument("--budget", type=_non_negative, default=200_000,
                      help="node budget for subquasimodule enumeration")
    p_qm.add_argument("--format", choices=("table", "structured"), default="table")
    p_qm.add_argument("--closed-only", action="store_true",
                      help="restrict the perp-table to closed subquasimodules")

    p_exp = sub.add_parser("export", help="export Hasse diagrams")
    exp_sub = p_exp.add_subparsers(dest="export_command", required=True)
    p_dot = exp_sub.add_parser("dot", help="emit a DOT Hasse diagram")
    p_dot.add_argument("file")
    p_dot.add_argument("--which", choices=("lattice", "subs", "closed"),
                       required=True)
    p_dot.add_argument("-o", "--output", default=None)
    p_dot.add_argument("--budget", type=_non_negative, default=200_000)

    p_ver = sub.add_parser("verify", help="run the verification harness")
    p_ver.add_argument("--instance", choices=REFERENCE_INSTANCES, default=None)
    p_ver.add_argument("--search", action="store_true")
    p_ver.add_argument("--max-size", type=int, default=5,
                       choices=range(1, MAX_LATTICE_SIZE + 1))
    p_ver.add_argument("--max-factors", type=int, default=2, choices=(1, 2))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--drop", action="append", default=[], choices=DROPPABLE,
                       help="claim to drop while searching")
    p_ver.add_argument("--report", default="quasimod-report.jsonl",
                       help="machine-readable report path")
    p_ver.add_argument("--no-report", action="store_true",
                       help="skip writing the report file")
    return parser


def _echo_config(args, keys):
    parts = [f"command={args.command}"]
    for key in keys:
        parts.append(f"{key}={getattr(args, key.replace('-', '_'))}")
    print("# config: " + " ".join(parts))


def _load_qm(ref):
    from .quasimodule import canonical, read_qm_file

    if ref.startswith("builtin:"):
        lattice = load_lattice(ref)
        return canonical(lattice, (principal_ideal(lattice, lattice.top),))
    return read_qm_file(ref)


def _lattice_of(ref):
    """The lattice of a lattice file, or the one a quasimodule spec names. A
    file whose first non-comment line is an `elements:` header is a lattice
    file, so its errors are the lattice parser's."""
    try:
        return load_lattice(ref)
    except Error:
        if not ref.startswith("builtin:"):
            lines = (l.strip() for l in read_text(ref).splitlines())
            first = next((l for l in lines if l and not l.startswith("#")), "")
            if first.startswith("elements:"):
                raise
        return _load_qm(ref).lattice


def _witness_str(lattice, witness):
    return "(" + ",".join(lattice.names[e] for e in witness) + ")"


# -- lattice check -------------------------------------------------------------

def _cmd_lattice_check(args):
    _echo_config(args, ["file"])
    lattice = load_lattice(args.file)
    print(f"valid bounded lattice: {lattice.n} elements, "
          f"bottom {lattice.names[lattice.bottom]}, top {lattice.names[lattice.top]}")
    for name, check in (("0-distributive", is_0_distributive),
                        ("modular", is_modular),
                        ("distributive", is_distributive)):
        holds, witness = check(lattice)
        if holds:
            print(f"{name}: yes")
        else:
            print(f"{name}: no, witness {_witness_str(lattice, witness)}")
    return 0


# -- qm actions ----------------------------------------------------------------

def _vector_str(labels):
    return "(" + ",".join(labels) + ")"


def _position_strs(qm):
    """The `(a,b)` string of every carrier position, built once per command."""
    return [_vector_str(qm.vector_labels(p)) for p in range(qm.size)]


def _set_str(strs, mask):
    return "{" + " ".join([strs[p] for p in iter_bits(mask)]) + "}"


def _cmd_qm(args):
    from .galois import closed_subquasimodules, is_splitting, perp
    from .subquasi import SubQM, all_subquasimodules, find_bases

    _echo_config(args, ["action", "file", "max-basis-size", "budget", "format"])
    qm = _load_qm(args.file)
    action = args.action

    if action == "verify":
        from .verify.laws import FAIL, Budgets, _Ctx, check_all, check_homomorphism

        # one context, so the subquasimodules are enumerated once for both
        ctx = _Ctx(qm, Budgets(max_nodes=args.budget), args.file)
        reports = check_all(qm, ctx=ctx)
        try:
            reports.append(check_homomorphism(qm, ctx=ctx))
        except NotZeroDistributive as exc:
            print(f"# homomorphism skipped: {exc}")
        _print_reports(reports, args.format)
        return 1 if any(r.status == FAIL for r in reports) else 0

    if action == "bases":
        subs = SubQM(qm, qm.full_mask)
        rows = find_bases(subs, args.max_basis_size)
        if args.format == "structured":
            for combo, orth in rows:
                print(json.dumps({"basis": [list(qm.vector_labels(p)) for p in combo],
                                  "orthogonal": orth}, sort_keys=True))
        else:
            for combo, orth in rows:
                body = "{" + " ".join(_vector_str(qm.vector_labels(p)) for p in combo) + "}"
                print(f"{body} orthogonal={'yes' if orth else 'no'}")
        return 0

    subs = all_subquasimodules(qm, max_nodes=args.budget)

    if action == "subs":
        _print_family(qm, subs.names(), subs.nodes, args.format)
        return 0

    if action == "closed":
        closed = closed_subquasimodules(qm)
        names = [subs.name_of_mask(m) for m in closed.nodes]
        _print_family(qm, names, closed.nodes, args.format)
        return 0

    if action == "splitting":
        masks = [m for m in subs.nodes if is_splitting(qm, SubQM(qm, m))]
        names = [subs.name_of_mask(m) for m in masks]
        _print_family(qm, names, masks, args.format)
        return 0

    if action == "perp-table":
        strs = _position_strs(qm)
        rows = []
        for mask in subs.nodes:
            companion = perp(qm, mask)
            double = perp(qm, companion)
            if args.closed_only and double != mask:
                continue
            rows.append((subs.name_of_mask(mask),
                         subs.name_of_mask(companion) if companion in subs.index
                         else _set_str(strs, companion),
                         subs.name_of_mask(double) if double in subs.index
                         else _set_str(strs, double)))
        if args.format == "structured":
            for name, p, pp in rows:
                print(json.dumps({"P": name, "perp": p, "perpperp": pp},
                                 sort_keys=True))
        else:
            _print_perp_table(rows)
        return 0

    raise AssertionError(f"unhandled action {action}")


def _print_family(qm, names, masks, fmt):
    if fmt == "structured":
        members = [list(qm.vector_labels(p)) for p in range(qm.size)]
        for name, mask in zip(names, masks):
            print(json.dumps(
                {"name": name, "members": [members[p] for p in iter_bits(mask)]},
                sort_keys=True))
    else:
        strs = _position_strs(qm)
        for name, mask in zip(names, masks):
            print(f"{name}\t{_set_str(strs, mask)}")


def _print_perp_table(rows, chunk=10):
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        col_widths = [max(len(cell) for cell in row) for row in block]
        label_width = len("P^perpperp")
        for label, k in (("P", 0), ("P^perp", 1), ("P^perpperp", 2)):
            cells = " | ".join(row[k].ljust(w) for row, w in zip(block, col_widths))
            print(f"{label.ljust(label_width)} | {cells}")
        if start + chunk < len(rows):
            print()


def _print_reports(reports, fmt="table"):
    from .verify.laws import FAIL

    if fmt == "structured":
        for r in reports:
            print(json.dumps(r.to_record(), sort_keys=True))
        return
    width = max(len(r.clause) for r in reports) + 2
    for r in reports:
        line = f"{r.clause.ljust(width)} {r.status}"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
        if r.witness and r.status == FAIL:
            print(f"{''.ljust(width)} witness: {json.dumps(r.witness, sort_keys=True)}")


# -- dot export ----------------------------------------------------------------

def _dot_text(node_names, cover_pairs, graph_name="hasse"):
    lines = [f"digraph {graph_name} {{", '  rankdir="BT";']
    for name in node_names:
        lines.append(f'  "{name}";')
    for lower, upper in cover_pairs:
        lines.append(f'  "{node_names[lower]}" -> "{node_names[upper]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args):
    config = (f"// config: command=export which={args.which} file={args.file} "
              f"budget={args.budget}\n")
    if args.which == "lattice":
        lattice = _lattice_of(args.file)
        text = _dot_text(lattice.names, lattice.covers(), "lattice")
    else:
        from .galois import closed_subquasimodules
        from .subquasi import all_subquasimodules

        qm = _load_qm(args.file)
        subs = all_subquasimodules(qm, max_nodes=args.budget)
        if args.which == "subs":
            text = _dot_text(subs.names(), subs.covers(), "subquasimodules")
        else:
            closed = closed_subquasimodules(qm)
            names = [subs.name_of_mask(m) for m in closed.nodes]
            text = _dot_text(names, closed.covers(), "closed")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(config.replace("//", "#", 1), end="")
        print(f"# wrote {args.output}")
    else:
        sys.stdout.write(config + text)
    return 0


# -- verify --------------------------------------------------------------------

def _cmd_verify(args):
    _echo_config(args, ["instance", "search", "max-size", "seed"])
    if args.search and args.instance:
        print("error: --instance and --search are mutually exclusive", file=sys.stderr)
        return 2
    if args.search:
        from .verify.search import SearchConfig, counterexample_search

        cfg = SearchConfig(max_lattice_size=args.max_size,
                           max_factors=args.max_factors,
                           seed=args.seed,
                           drop_hypotheses=tuple(args.drop))
        reports = counterexample_search(cfg)
        if not reports:
            print("no findings")
        else:
            _print_reports(reports)
        _write_report_file(args, reports)
        if not args.drop and reports:
            return 1
        return 0
    from .verify.instances import reproduce_reference
    from .verify.laws import FAIL

    instances = [args.instance] if args.instance else list(REFERENCE_INSTANCES)
    reports = []
    for name in instances:
        reports.extend(reproduce_reference(name))
    _print_reports(reports)
    _write_report_file(args, reports)
    return 1 if any(r.status == FAIL for r in reports) else 0


def _write_report_file(args, reports):
    if args.no_report:
        return
    with open(args.report, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_record(), sort_keys=True) + "\n")
    print(f"# report: {args.report} ({len(reports)} records)")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "lattice":
            return _cmd_lattice_check(args)
        if args.command == "qm":
            return _cmd_qm(args)
        if args.command == "export":
            return _cmd_export_dot(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}\nhint: raise --budget to enumerate further",
              file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
