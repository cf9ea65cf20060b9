"""Shared test helpers.

The forest check here is deliberately written against a different graph
representation than the package (explicit adjacency lists, DFS component
count) so the two implementations can cross-validate each other.
"""

from __future__ import annotations

import random
from itertools import combinations

from bbforest import BalancedBipartiteGraph, VertexSubset, from_rows
from bbforest.solver import _merge


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


def forest_masks_oracle(g: BalancedBipartiteGraph) -> list[int]:
    """Every induced forest as a mask over the 2n global ids (V1 ids
    low), in ascending order, by ``forest_oracle`` on every subset."""
    n = g.n
    return [bits for bits in range(1 << 2 * n)
            if forest_oracle(g, VertexSubset(bits & (1 << n) - 1, bits >> n))]


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


def greedy_forest_oracle(adj: tuple[int, ...], s: int,
                         comps: tuple[int, ...], live: int, stop: int) -> int:
    """The greedy forest of ``solver._greedy_forest`` by a plain scan: each
    step recounts every live vertex's active (``s | live``) degree and
    joins the one with the fewest, lowest id on ties; the vertices the
    join kills (``solver._merge``) leave. Stops at ``stop`` vertices or
    when no live vertex is left."""
    size = s.bit_count()
    while live and size < stop:
        act = s | live
        fewest = len(adj)
        m = live
        while m:
            b = m & -m
            m ^= b
            d = (adj[b.bit_length() - 1] & act).bit_count()
            if d < fewest:
                fewest = d
                v = b
        comps, dead = _merge(comps, v, adj[v.bit_length() - 1])
        s |= v
        live &= ~(v | dead)
        size += 1
    return s


def edge_cut_oracle(cand: list[int], total: int, floor: int, edges: int,
                    pos: int) -> bool:
    """The edge-cut bound of ``solver._edge_cut_refutes`` by a sort: the
    candidates' active degrees ``cand``, in any order, with the zeros left
    out, sorted high to low; S_k sums the first k = total - floor - 1 of
    them, k capped at their number, and the bound refutes when the active
    graph has an edge and S_k - k < edges - pos + 1."""
    cand = sorted(filter(None, cand), reverse=True)
    k = min(total - floor - 1, len(cand))
    return pos > 0 and sum(cand[:k]) - k < edges - pos + 1


def random_bipartite(n: int, p: float, seed: int) -> BalancedBipartiteGraph:
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                rows[i] |= 1 << j
    return from_rows(n, rows)


def bbg_oracle(text: str) -> BalancedBipartiteGraph | tuple[str, int]:
    """Reference BBG v1 reader: the graph, or the (message, line) that
    ``parse_bbg`` must raise.

    It reads one line at a time and sets each matrix entry from its own
    character, so it shares no parsing or transpose code with the package.
    """
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    if lines[0] != "BBG 1":
        return "expected header 'BBG 1'", 1
    if not text.endswith("\n"):
        return "missing final newline", len(lines)
    if len(lines) < 2:
        return "missing part size", 2
    size = lines[1]
    if size == "" or not all("0" <= c <= "9" for c in size):
        return f"part size must be a decimal integer, got {size!r}", 2
    if len(size) > 1 and size[0] == "0":
        return f"part size has leading zeros: {size!r}", 2
    n = int(size)
    if n == 0:
        return "part size must be positive", 2
    rows = lines[2:]
    if len(rows) < n:
        return f"expected {n} rows, found {len(rows)}", len(lines) + 1
    if len(rows) > n:
        return "unexpected trailing content", n + 3
    adj1 = [0] * n
    adj2 = [0] * n
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"expected {n} columns, got {len(row)}", 3 + i
        for j, c in enumerate(row):
            if c not in ("0", "1"):
                return f"invalid character {c!r}", 3 + i
            if c == "1":
                adj1[i] |= 1 << j
                adj2[j] |= 1 << i
    return BalancedBipartiteGraph(n, tuple(adj1), tuple(adj2))


class SerialPool:
    """Stands in for ``ProcessPoolExecutor``: maps in the calling process,
    so no worker process starts."""

    def __init__(self, max_workers: int):
        pass

    def __enter__(self) -> SerialPool:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, items):
        return map(fn, items)
