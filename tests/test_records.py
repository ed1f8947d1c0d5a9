"""The record classes: fields in order, defaults, equality, hashing, and no
assignment to the fields of a frozen one."""

import copy
import pickle

import pytest

from quasimodules.galois import ClosedIso, TaggedSet
from quasimodules.lattice import Ideal
from quasimodules.quasimodule import AxiomCheck, AxiomReport, RawQM
from quasimodules.subquasi import SubQM
from quasimodules.verify.laws import Budgets, TheoremReport
from quasimodules.verify.search import SearchConfig

# (class, fields in order, defaults of the trailing fields, frozen)
RECORDS = [
    (Ideal, ("lattice", "members"), {}, True),
    (SubQM, ("qm", "members"), {}, True),
    (TaggedSet, ("qm", "members", "violation"), {}, True),
    (ClosedIso, ("qm", "factor_closed", "assignments", "bijective"), {}, True),
    (RawQM, ("lattice", "add", "smul", "zero"), {}, True),
    (AxiomCheck, ("name", "holds", "witness"), {"witness": None}, True),
    (AxiomReport, ("checks",), {}, True),
    (TheoremReport, ("clause", "status", "instance", "witness", "note", "seconds"),
     {"witness": None, "note": None, "seconds": 0.0}, False),
    (Budgets, ("sampled_closures", "max_nodes", "seed"),
     {"sampled_closures": 300, "max_nodes": 200_000, "seed": 0}, True),
    (SearchConfig, ("max_lattice_size", "max_factors", "seed", "drop_hypotheses"),
     {"max_lattice_size": 5, "max_factors": 2, "seed": 0, "drop_hypotheses": ()}, True),
]

# values SearchConfig's validation accepts; other records take any value
VALID = {SearchConfig: (6, 1, 3, ("0-distributive",))}


def values_for(cls, fields):
    return VALID.get(cls, tuple(("value", k) for k in range(len(fields))))


@pytest.mark.parametrize("cls, fields, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_defaults_equality_and_freezing(cls, fields, defaults, frozen):
    values = values_for(cls, fields)
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == rec
    required = values[:len(fields) - len(defaults)]
    bare = cls(*required)
    assert {f: getattr(bare, f) for f in defaults} == defaults
    assert (bare != rec) == bool(defaults)
    assert rec != values and rec != object()
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    if frozen:
        assert hash(cls(*values)) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(rec, fields[0])
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, fields[0], "changed")
        assert getattr(rec, fields[0]) == "changed"


def test_search_config_validates_on_construction():
    with pytest.raises(ValueError, match="unknown hypothesis"):
        SearchConfig(drop_hypotheses=("nope",))
    with pytest.raises(ValueError, match="max_lattice_size 8"):
        SearchConfig(max_lattice_size=8)
