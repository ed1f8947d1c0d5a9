"""Verification harness: law suites, reference instances, counterexample search.

- :func:`check_all` runs the clause registry against one quasimodule and
  returns one report per clause; :func:`check_homomorphism` adds the
  conditional homomorphism law.
- :func:`reproduce_reference` replays a bundled reference instance against
  frozen golden data.
- :func:`counterexample_search` enumerates small lattices and hunts
  violations of dropped claims; findings replay via :func:`replay_witness`.

The names the command-line parser needs are defined here; every other name
is imported from its submodule on first use (PEP 562), so building the
parser loads no law suite.
"""

from importlib import import_module

# bundled reference instances, in the order `quasimod verify` replays them
REFERENCE_INSTANCES = ("ex2", "m3", "ex1", "fig5", "n5-power")

# the claims a counterexample search can drop
DROPPABLE = ("0-distributive", "closed-is-splitting")

# the largest lattice the search enumerates exhaustively
MAX_LATTICE_SIZE = 7

_HOMES = {
    "laws": ("BUDGET", "Budgets", "CLAUSE_IDS", "FAIL", "HYP", "PASS",
             "TheoremReport", "check_all", "check_homomorphism"),
    "instances": ("is_boolean_shape", "reproduce_reference"),
    "search": ("SearchConfig", "counterexample_search", "replay_witness"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(["DROPPABLE", "MAX_LATTICE_SIZE", "REFERENCE_INSTANCES", *_HOME])


def __getattr__(name):
    # Nothing is cached here: a binding made while a tracer has wrapped the
    # function would outlive the tracing.
    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES, *_HOME})
