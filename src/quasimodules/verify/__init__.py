"""Verification harness: law suites, reference instances, counterexample search.

- :func:`check_all` runs the clause registry against one quasimodule and
  returns one report per clause; :func:`check_homomorphism` adds the
  conditional homomorphism law.
- :func:`reproduce_reference` replays a bundled reference instance against
  frozen golden data.
- :func:`counterexample_search` enumerates small lattices and hunts
  violations of dropped claims; findings replay via :func:`replay_witness`.
"""

from .instances import REFERENCE_INSTANCES, is_boolean_shape, reproduce_reference
from .laws import (
    BUDGET,
    CLAUSE_IDS,
    FAIL,
    HYP,
    PASS,
    Budgets,
    TheoremReport,
    check_all,
    check_homomorphism,
)
from .search import (DROPPABLE, MAX_LATTICE_SIZE, SearchConfig,
                     counterexample_search, replay_witness)

__all__ = [
    "BUDGET",
    "Budgets",
    "CLAUSE_IDS",
    "DROPPABLE",
    "FAIL",
    "HYP",
    "MAX_LATTICE_SIZE",
    "PASS",
    "REFERENCE_INSTANCES",
    "SearchConfig",
    "TheoremReport",
    "check_all",
    "check_homomorphism",
    "counterexample_search",
    "is_boolean_shape",
    "reproduce_reference",
    "replay_witness",
]
