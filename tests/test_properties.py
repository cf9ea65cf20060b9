"""Metamorphic properties of the exact solver at n = 16-48.

No subset-scan oracle reaches these sizes, so the solver is checked against
itself: relabelling the graph must not move f, deleting an edge must not
lower it, and every witness must pass the independent forest check. The
witness must be the first leaf of a lex walk started from no known forest,
and closing the root on the degree count, or switching off the edge-cut
bound, the (1, 2)-swap or the lexicographic descent, must give what the
search gives. Where the root bound lies far above the swap forest, the
optimum found by upward stopped queries must give what the include-first
search gives. Graphs and relabellings come from fixed seeds.

The two local-search helpers are checked by brute force at 2n <= 14: the
swap must leave a maximal forest with no drop-one-add-two exchange, and
the descent one with no exchange that adds a vertex below the one it
drops. One full part plus one vertex of the other is a forest in every
graph, which is why the claim sweeps never check such a set.
"""

import random
from itertools import combinations

import pytest

from bbforest import (BalancedBipartiteGraph, VertexSubset, from_rows,
                      is_induced_forest, max_forest, random_min_degree)
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
    # max_forest walks from the optimum's forest; a walk from no known
    # forest makes other queries but must reach the same first leaf
    first = next(solver._lex_walk(solver._Search(g), res.forest_number, None))
    assert first == res.witness.s1 | res.witness.s2 << g.n


@pytest.mark.parametrize("make", [m for m, _ in DENSE],
                         ids=[name for _, name in DENSE])
def test_root_count_keeps_forest_number_and_witness(make, monkeypatch):
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver, "_count_refutes", lambda *args: False)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)


# the edge-cut ablation runs at n <= 20: without the bound, gnp22p45 and
# gnp22p60 take 1 726 877 and 7 693 079 nodes (14 s and 58 s on a 2-vCPU
# host) against 365 and 475 with it
NO_BOUND = [(make, name) for make, name in GRAPHS if make().n <= 20]


@pytest.mark.parametrize("make", [m for m, _ in NO_BOUND],
                         ids=[name for _, name in NO_BOUND])
def test_edge_cut_bound_keeps_forest_number_and_witness(make, monkeypatch):
    # switched off, the bound must cost nodes: a bound the search no
    # longer calls fails here
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver, "_edge_cut_refutes",
                        lambda bucket, r, top, total, floor, edges: False)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)
    assert searched.nodes_explored > res.nodes_explored


@pytest.mark.parametrize("helper, identity", [
    ("_swap_forest", lambda adj, s: s),
    ("_descend", lambda adj, s: s)], ids=["swap", "descent"])
@pytest.mark.parametrize("make", [m for m, _ in GRAPHS],
                         ids=[name for _, name in GRAPHS])
def test_local_search_keeps_forest_number_and_witness(make, helper, identity,
                                                      monkeypatch):
    g = make()
    res = max_forest(g)
    monkeypatch.setattr(solver, helper, identity)
    searched = max_forest(g)
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)


# graphs whose root bound lies at least _UPWARD_GAP above the swap forest,
# so the optimum is found by upward stopped queries: a solve-sparse corpus
# graph, the n = 32, p = 0.25 row and seeded graphs at n = 22-28. The swap
# forest is f on two of them and f - 1 on four; on some the rule costs
# nodes and on some it saves them
UPWARD = [(lambda n=n, p=p, seed=seed: random_bipartite(n, p, seed),
           f"gnp{n}p{round(p * 100)}s{seed}")
          for n, p, seed in ((18, 0.3, 183007), (32, 0.25, 7), (22, 0.3, 4),
                             (22, 0.3, 7), (24, 0.25, 2), (24, 0.3, 1),
                             (26, 0.2, 3), (26, 0.25, 3), (26, 0.25, 6),
                             (26, 0.3, 6), (28, 0.2, 6), (28, 0.25, 4),
                             (28, 0.25, 8), (28, 0.3, 2), (28, 0.3, 7))]


def _upward_on_and_off(g: BalancedBipartiteGraph, monkeypatch):
    # max_forest with the upward rule, which must fire, and with its gap out
    # of reach, which must not: the rule fires when the gap test passes
    fired = []
    reaches = solver._Search._reaches

    def spied(search, *args):
        reached = reaches(search, *args)
        if reached:
            fired.append(args)
        return reached

    monkeypatch.setattr(solver._Search, "_reaches", spied)
    res = max_forest(g)
    assert len(fired) == 1
    monkeypatch.setattr(solver, "_UPWARD_GAP", 2 * g.n + 1)
    searched = max_forest(g)
    assert len(fired) == 1
    assert (res.forest_number, res.witness) == (searched.forest_number,
                                                searched.witness)
    return res, searched


@pytest.mark.parametrize("make", [m for m, _ in UPWARD],
                         ids=[name for _, name in UPWARD])
def test_upward_queries_keep_forest_number_and_witness(make, monkeypatch):
    _upward_on_and_off(make(), monkeypatch)


def test_upward_queries_cut_the_n36_optimum(monkeypatch):
    # the swap forest, 39 vertices, is 4 below f = 43 and 10 below the root
    # bound
    res, searched = _upward_on_and_off(random_bipartite(36, 0.2, 7),
                                       monkeypatch)
    assert res.nodes_explored < searched.nodes_explored


def _is_forest(g: BalancedBipartiteGraph, s: int) -> bool:
    return forest_oracle(g, VertexSubset(s & (1 << g.n) - 1, s >> g.n))


def _ids(m: int) -> list[int]:
    return [v for v in range(m.bit_length()) if m >> v & 1]


def _swapped_forests():
    """(graph, start, swapped forest) for random graphs at 2n <= 16,
    sparse and dense. The start is a maximal forest grown over the whole
    graph in random order, as the optimum's greedy grows one in its own."""
    rng = random.Random(16)
    for gi in range(320):
        n = 3 + gi % 6
        g = random_bipartite(n, (0.2, 0.3, 0.5, 0.7)[gi % 4], gi)
        adj = solver._adjacency(g)
        for _ in range(3):
            start = 0
            for v in rng.sample(range(2 * n), 2 * n):
                if _is_forest(g, start | 1 << v):
                    start |= 1 << v
            yield g, start, solver._swap_forest(adj, start)


def test_swap_leaves_a_maximal_two_improved_forest():
    grown = 0
    for g, start, s in _swapped_forests():
        assert _is_forest(g, s)
        grown += s != start
        outside = [1 << v for v in _ids(~s & (1 << 2 * g.n) - 1)]
        assert not any(_is_forest(g, s | y) for y in outside), (g, s)
        for x in _ids(s):
            for y, z in combinations(outside, 2):
                assert not _is_forest(g, s ^ 1 << x | y | z), (g, s, x)
    assert grown


def test_kick_keeps_a_larger_forest_it_cannot_lift_again():
    grown = 0
    for g, start, _ in _swapped_forests():
        adj = solver._adjacency(g)
        s = solver._kick(adj, start)
        assert _is_forest(g, s)
        assert s.bit_count() >= start.bit_count(), (g, start, s)
        assert solver._kick(adj, s) == s, (g, s)
        grown += s.bit_count() > start.bit_count()
    assert grown


def test_descent_keeps_size_and_leaves_no_lower_exchange():
    moved = 0
    for g, _, s in _swapped_forests():
        d = solver._descend(solver._adjacency(g), s)
        assert _is_forest(g, d) and d.bit_count() == s.bit_count()
        assert _ids(d) <= _ids(s)
        moved += d != s
        for w in _ids(d):
            for y in _ids(~d & (1 << w) - 1):
                assert not _is_forest(g, d ^ (1 << w | 1 << y)), (g, d, w, y)
    assert moved


@pytest.mark.parametrize("n", range(1, 13))
def test_one_part_plus_one_vertex_is_a_forest(n):
    # the set induces a star centred on the lone vertex, so T6λ1's one-sided
    # witness and C1's converse hold on every instance; that such a set is
    # maximum follows from f = n + 1, which the sweeps check
    full = (1 << n) - 1
    for seed, p in enumerate((0.3, 0.6, 1.0)):
        g = random_bipartite(n, p, 100 * n + seed)
        for i in range(n):
            for s in (VertexSubset(full, 1 << i), VertexSubset(1 << i, full)):
                assert is_induced_forest(g, s) and forest_oracle(g, s), (g, s)
