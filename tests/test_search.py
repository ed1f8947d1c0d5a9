"""The search's lattice generator and its hunts against slower oracles.

The oracles build every lattice through `build_lattice` from order pairs, as
the search once did, and keep no memo.
"""

import pytest

from quasimodules.errors import Error
from quasimodules.lattice import build_lattice
from quasimodules.verify import SearchConfig, counterexample_search
from quasimodules.verify import search
from quasimodules.verify.search import _exhaustive_lattices


def pairs_generator(n):
    """Every naturally labelled lattice on n elements: all order bits between
    middle elements, closed by build_lattice, the first of each up-tuple."""
    names = tuple(f"e{i}" for i in range(n))
    if n == 1:
        yield build_lattice(names, [])
        return
    base = [(names[0], names[j]) for j in range(1, n)]
    base += [(names[i], names[n - 1]) for i in range(n - 1)]
    mids = list(range(1, n - 1))
    free = [(i, j) for a, i in enumerate(mids) for j in mids[a + 1:]]
    seen = set()
    for bits in range(1 << len(free)):
        pairs = list(base)
        for k, (i, j) in enumerate(free):
            if bits >> k & 1:
                pairs.append((names[i], names[j]))
        try:
            lat = build_lattice(names, pairs)
        except Error:
            continue
        if lat.up not in seen:
            seen.add(lat.up)
            yield lat


def tables(lat):
    return lat.names, lat.up, lat.meet, lat.join


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 7), (6, 39),
                                      (7, 320)])
def test_exhaustive_lattices_match_the_pairs_generator(n, count):
    got = [tables(lat) for lat in _exhaustive_lattices(n)]
    assert got == [tables(lat) for lat in pairs_generator(n)]
    assert len(got) == count


def oracle_minimize(lat, detail, violation, memo):
    """Greedy element removal, each candidate built from its order pairs."""
    current = lat
    improved = True
    while improved and current.n > 1:
        improved = False
        for drop in range(current.n):
            keep = [i for i in range(current.n) if i != drop]
            names = [current.names[i] for i in keep]
            pairs = [(current.names[i], current.names[j])
                     for i in keep for j in keep if i != j and current.le(i, j)]
            try:
                candidate = build_lattice(names, pairs)
            except Error:
                continue
            d = violation(candidate)
            if d is not None:
                current, detail = candidate, d
                improved = True
                break
    return current, detail


def findings(cfg):
    return [(r.clause, r.status, r.instance, r.witness, r.note)
            for r in counterexample_search(cfg)]


@pytest.mark.parametrize("hyp, size", [("0-distributive", 7), ("closed-is-splitting", 6)])
def test_hunts_match_the_memo_free_minimizer(hyp, size, monkeypatch):
    cfg = SearchConfig(max_lattice_size=size, drop_hypotheses=(hyp,))
    got = findings(cfg)
    monkeypatch.setattr(search, "_minimize", oracle_minimize)
    want = findings(cfg)
    assert got == want
    assert len(got) == {"0-distributive": 221, "closed-is-splitting": 6}[hyp]
