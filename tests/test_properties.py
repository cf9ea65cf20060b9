"""Metamorphic properties of the exact solver at n = 16-48.

No subset-scan oracle reaches these sizes, so the solver is checked against
itself: relabelling the graph must not move f, deleting an edge must not
lower it, and every witness must pass the independent forest check. The
witness must be the first one the enumeration lists, and closing the root
on the degree count, or switching off the 4-cycle probe or the edge-cut
bound, must give what the search gives. A 4-cycle a child node takes over
from its parent must be the one a fresh probe finds. Graphs and
relabellings come from fixed seeds.
"""

import random

import pytest

from bbforest import (BalancedBipartiteGraph, enumerate_max_forests,
                      from_rows, max_forest, random_min_degree)
from bbforest import solver

from .helpers import forest_oracle, random_bipartite

GRAPHS = [
    (lambda: random_bipartite(16, 0.15, 10), "gnp16p15"),
    (lambda: random_bipartite(16, 0.3, 11), "gnp16p30"),
    (lambda: random_bipartite(18, 0.2, 12), "gnp18p20"),
    (lambda: random_bipartite(18, 0.4, 13), "gnp18p40"),
    (lambda: random_bipartite(20, 0.35, 14), "gnp20p35"),
    (lambda: random_bipartite(20, 0.5, 15), "gnp20p50"),
    (lambda: random_bipartite(22, 0.45, 16), "gnp22p45"),
    (lambda: random_bipartite(22, 0.6, 17), "gnp22p60"),
    (lambda: random_bipartite(24, 0.5, 18), "gnp24p50"),
    (lambda: random_min_degree(24, 13, 19), "rmd24"),
    (lambda: random_bipartite(28, 0.4, 21), "gnp28p40"),
    (lambda: random_bipartite(32, 0.5, 23), "gnp32p50"),
    (lambda: random_bipartite(48, 0.6, 25), "gnp48p60"),
]

# minimum degree just below n/2 and at the threshold (n + 3) // 2, where the
# degree count closes the root, and G(n, n, 0.6)
DENSE = [case for n in (20, 32, 48) for case in [
    (lambda n=n: random_min_degree(n, n // 2 - 1, n), f"rmdlow{n}"),
    (lambda n=n: random_min_degree(n, (n + 3) // 2, n), f"rmd{n}"),
    (lambda n=n: random_bipartite(n, 0.6, n), f"gnp{n}p60")]]


def _solve(g: BalancedBipartiteGraph) -> int:
    res = max_forest(g)
    assert res.witness.size == res.forest_number
    assert forest_oracle(g, res.witness)
    return res.forest_number


def _permuted(g: BalancedBipartiteGraph,
              rng: random.Random) -> BalancedBipartiteGraph:
    p1 = rng.sample(range(g.n), g.n)
    p2 = rng.sample(range(g.n), g.n)
    rows = [0] * g.n
    for i, row in enumerate(g.adj1):
        for j in range(g.n):
            if row >> j & 1:
                rows[p1[i]] |= 1 << p2[j]
    return from_rows(g.n, rows)


@pytest.mark.parametrize("seed, make", enumerate(m for m, _ in GRAPHS),
                         ids=[name for _, name in GRAPHS])
def test_forest_number_metamorphic(seed, make):
    g = make()
    rng = random.Random(seed)
    f = _solve(g)
    assert f >= g.n + 1
    # swapping the parts
    assert _solve(from_rows(g.n, g.adj2)) == f
    # relabelling within each part
    assert _solve(_permuted(g, rng)) == f
    # deleting an edge cannot destroy a forest
    i = rng.choice([i for i, row in enumerate(g.adj1) if row])
    row = g.adj1[i]
    j = rng.choice([j for j in range(g.n) if row >> j & 1])
    rows = list(g.adj1)
    rows[i] ^= 1 << j
    assert _solve(from_rows(g.n, rows)) >= f


@pytest.mark.parametrize("make", [m for m, _ in GRAPHS],
                         ids=[name for _, name in GRAPHS])
def test_witness_is_first_enumerated(make):
    g = make()
    res = max_forest(g)
    first = next(enumerate_max_forests(g, cap=1,
                                       forest_number=res.forest_number))
    assert first == res.witness


@pytest.mark.parametrize("make", [m for m, _ in DENSE],
                         ids=[name for _, name in DENSE])
def test_root_count_keeps_forest_number_and_witness(make, monkeypatch):
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver, "_count_refutes", lambda *args: False)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)


# gnp22p60 needs 1 093 187 nodes without the probe (17 s on a 2-vCPU host)
NO_PROBE = [(make, name) for make, name in GRAPHS if make().n <= 20]


@pytest.mark.parametrize("make", [m for m, _ in NO_PROBE],
                         ids=[name for _, name in NO_PROBE])
def test_c4_probe_keeps_forest_number_and_witness(make, monkeypatch):
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver._Search, "_find_c4",
                        lambda self, act, known=0: 0)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)


@pytest.mark.parametrize("make", [m for m, _ in NO_PROBE],
                         ids=[name for _, name in NO_PROBE])
def test_edge_cut_bound_keeps_forest_number_and_witness(make, monkeypatch):
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver, "_edge_cut_refutes",
                        lambda deg, total, floor: False)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)


@pytest.mark.parametrize("make", [m for m, _ in NO_PROBE],
                         ids=[name for _, name in NO_PROBE])
def test_reused_c4_is_a_fresh_probe(make, monkeypatch):
    find_c4 = solver._Search._find_c4
    reused = []

    def checking(self, act, known=0):
        got = find_c4(self, act, known)
        if known and known & act == known:
            assert got == known == find_c4(self, act), (act, known)
            reused.append(got)
        return got

    monkeypatch.setattr(solver._Search, "_find_c4", checking)
    max_forest(make())
    assert reused
