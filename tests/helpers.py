"""Shared test helpers.

The forest check here is deliberately written against a different graph
representation than the package (explicit adjacency lists, DFS component
count) so the two implementations can cross-validate each other.
"""

from __future__ import annotations

import random
from itertools import combinations

from bbforest import BalancedBipartiteGraph, VertexSubset, from_rows


def forest_oracle(g: BalancedBipartiteGraph, s: VertexSubset) -> bool:
    """Acyclicity of the induced subgraph, via edges == vertices - components."""
    nodes = [("a", i) for i in range(g.n) if s.s1 >> i & 1]
    nodes += [("b", j) for j in range(g.n) if s.s2 >> j & 1]
    index = {v: i for i, v in enumerate(nodes)}
    adjacency: list[list[int]] = [[] for _ in nodes]
    edges = 0
    for side, i in nodes:
        if side != "a":
            continue
        for j in range(g.n):
            if g.adj1[i] >> j & 1 and ("b", j) in index:
                adjacency[index[("a", i)]].append(index[("b", j)])
                adjacency[index[("b", j)]].append(index[("a", i)])
                edges += 1
    seen = [False] * len(nodes)
    components = 0
    for start in range(len(nodes)):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return edges == len(nodes) - components


def max_forest_oracle(g: BalancedBipartiteGraph) -> int:
    """Reference forest number: the largest size at which the subset scan
    of ``enumerate_forests_oracle`` finds an induced forest."""
    return next((size for size in range(2 * g.n, 0, -1)
                 if enumerate_forests_oracle(g, size)), 0)


def enumerate_forests_oracle(g: BalancedBipartiteGraph,
                             size: int) -> list[VertexSubset]:
    """Every induced forest with ``size`` vertices, by scanning all
    C(2n, size) subsets in lexicographic order of their global ids.

    A subset with at least as many edges as vertices cannot be a forest, so
    only the others reach ``forest_oracle``.
    """
    n = g.n
    out = []
    for combo in combinations(range(2 * n), size):
        v1 = [v for v in combo if v < n]
        s = VertexSubset.from_indices(v1, [v - n for v in combo if v >= n])
        edges = sum((g.adj1[i] & s.s2).bit_count() for i in v1)
        if edges < size and forest_oracle(g, s):
            out.append(s)
    return out


def random_bipartite(n: int, p: float, seed: int) -> BalancedBipartiteGraph:
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                rows[i] |= 1 << j
    return from_rows(n, rows)
