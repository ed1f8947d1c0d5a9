"""Finite bounded lattices and quasimodules over them.

A quasimodule over a bounded lattice is a commutative monoid of vectors with
a scalar action from the lattice; the canonical ones are finite products of
ideals with componentwise join as addition and componentwise meet as the
scalar action. This package builds them, computes orthogonality companions
and the lattices of subquasimodules, closed subquasimodules and splitting
subquasimodules, searches for bases, and exhaustively verifies the structural
laws these objects satisfy.

Importing the package loads no submodule. Each public name below, and each
submodule, is imported on first use (PEP 562), so a `quasimod` process
compiles only the modules its command runs.
"""

from importlib import import_module

_HOMES = {
    "galois": ("ClosedIso", "ClosedLattice", "TaggedSet", "closed_join",
               "closed_lattice_iso", "closed_sets", "closed_subquasimodules",
               "double_perp", "factor_zero_distributivity", "is_closed",
               "is_splitting", "perp", "principal_perp", "product_mask",
               "splitting_subquasimodules", "sum_set"),
    "lattice": ("Ideal", "Lattice", "build_lattice", "builtin", "builtin_covers",
                "format_lattice", "is_0_distributive", "is_distributive", "is_ideal",
                "is_modular", "load_lattice", "parse_lattice", "principal_ideal",
                "read_lattice_file"),
    "quasimodule": ("CanonicalQM", "RawQM", "canonical", "parse_qm", "read_qm_file",
                    "standard_basis", "verify_axioms"),
    "subquasi": ("SubQM", "SubQMLattice", "all_subquasimodules", "find_bases",
                 "generate", "is_basis", "is_generating", "is_subquasimodule"),
    "verify": ("Budgets", "SearchConfig", "TheoremReport", "check_all",
               "check_homomorphism", "counterexample_search", "reproduce_reference",
               "replay_witness"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("bitset", "errors", *_HOMES)

__all__ = sorted([*_SUBMODULES, *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    # Nothing is cached here: a binding made while a tracer has wrapped the
    # function would outlive the tracing.
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
