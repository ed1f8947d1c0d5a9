"""Import hygiene: a `quasimod` process loads only what its command runs, and
the lazy package exports every public name from its submodule."""

import json
import os
import subprocess
import sys

import pytest

import quasimodules
import quasimodules.verify

SRC = os.path.dirname(os.path.dirname(os.path.abspath(quasimodules.__file__)))

# The public names of the package and of `quasimodules.verify`, by the
# submodule that defines them.
PACKAGE_NAMES = {
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
    "subquasi": ("SubQM", "SubQMLattice", "all_subquasimodules", "find_bases", "generate",
                 "is_basis", "is_generating", "is_subquasimodule"),
    "verify.laws": ("Budgets", "TheoremReport", "check_all", "check_homomorphism"),
    "verify.instances": ("reproduce_reference",),
    "verify.search": ("SearchConfig", "counterexample_search", "replay_witness"),
}
VERIFY_NAMES = {
    "verify.laws": ("BUDGET", "Budgets", "CLAUSE_IDS", "FAIL", "HYP", "PASS",
                    "TheoremReport", "check_all", "check_homomorphism"),
    "verify.instances": ("REFERENCE_INSTANCES", "is_boolean_shape", "reproduce_reference"),
    "verify.search": ("DROPPABLE", "MAX_LATTICE_SIZE", "SearchConfig",
                      "counterexample_search", "replay_witness"),
}


def loaded_after(code):
    """The modules a fresh interpreter holds after running code."""
    program = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", program], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_law_suite_and_no_dataclasses():
    loaded = loaded_after("import quasimodules.cli")
    assert "dataclasses" not in loaded
    assert "quasimodules.verify.laws" not in loaded


def test_lattice_check_loads_only_the_lattice_layer():
    loaded = loaded_after('from quasimodules.cli import main\n'
                          'main(["lattice", "check", "builtin:fig5"])')
    ours = {m for m in loaded if m.split(".")[0] == "quasimodules"}
    # the two package initialisers hold no code beyond the parser's constants
    assert ours == {"quasimodules", "quasimodules.verify", "quasimodules.cli",
                    "quasimodules.errors", "quasimodules.bitset", "quasimodules.lattice"}
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("package, names", [(quasimodules, PACKAGE_NAMES),
                                            (quasimodules.verify, VERIFY_NAMES)],
                         ids=["quasimodules", "quasimodules.verify"])
def test_every_former_public_name_resolves_to_its_submodule_object(package, names):
    for module, attrs in names.items():
        home = __import__(f"quasimodules.{module}", fromlist=["_"])
        for name in attrs:
            assert getattr(package, name) is getattr(home, name), name
    assert set(package.__all__) >= {n for attrs in names.values() for n in attrs}


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quasimodules.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        quasimodules.verify.no_such_name
