"""Import hygiene: a `quasimod` process loads only what its command runs, the
lazy package exports every public name from its submodule, and no module
imports a name it never uses."""

import ast
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


def unused_imports(source):
    """The names a module imports and never references, in import order.

    A reference is a loaded name anywhere in the module; `__future__`
    imports are directives, not names, and are left out.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "from .bitset import iter_bits, mask_of\nprint(os.sep, mask_of)\n")
    assert unused_imports(source) == ["osp", "iter_bits"]


def test_no_module_imports_a_name_it_never_uses():
    package = os.path.join(SRC, "quasimodules")
    found = {}
    for dirpath, _, filenames in os.walk(package):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    unused = unused_imports(fh.read())
                if unused:
                    found[os.path.relpath(path, package)] = unused
    assert found == {}


def calls_outside(source, names, owner):
    """(function, name) of each call to one of `names` made outside the
    module-level function `owner`; None stands for module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Call) and inner != owner:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((inner, name))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_calls_outside_are_found():
    source = ("from time import perf_counter\nimport time\nt = perf_counter()\n"
              "def make():\n    return Report(time.perf_counter())\n"
              "def fine():\n    def inner():\n        return Report()\n    return inner\n")
    assert calls_outside(source, {"Report", "perf_counter"}, "fine") == [
        (None, "perf_counter"), ("make", "Report"), ("make", "perf_counter")]


@pytest.mark.parametrize("module, names, owner", [
    ("laws", {"TheoremReport"}, "_record"),
    ("instances", {"TheoremReport", "perf_counter"}, "reproduce_reference"),
])
def test_reports_are_made_and_timed_in_one_function(module, names, owner):
    # clause bodies and golden checks only decide; one function per module
    # makes and times the reports
    path = os.path.join(SRC, "quasimodules", "verify", f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        assert calls_outside(fh.read(), names, owner) == []


def test_the_law_suite_draws_only_for_th2_vi():
    # the other clauses are decided exactly, with no seeded sample
    path = os.path.join(SRC, "quasimodules", "verify", "laws.py")
    with open(path, encoding="utf-8") as fh:
        assert calls_outside(fh.read(), {"Random"}, "_c_th2_vi") == []
