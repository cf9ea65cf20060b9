"""Exact maximum induced forest solvers and witness enumeration.

Two independent routes compute the forest number: a subset-scan oracle
(``max_forest_bruteforce``) for small instances and a branch-and-bound
search (``max_forest``) for anything up to the single-word part cap. Both
return the lexicographically smallest optimal witness under the global
vertex order (V1 ids first), so their results are directly comparable.

There is one search, ``_Search``, entered one way, ``largest``: the
largest forest above a floor that holds one set and avoids another, or
the first one found, returned as a mask or None. ``_walk`` builds the
optimum from it, above the floor n + 1, and ``feasible_with`` asks for
the first forest above one less than a target size. A lex walk
(``_lex_walk``) decides the ids in increasing order, include first, and
asks ``feasible_with`` whether a branch still holds a forest of the
target size. Its leaves are every such forest, in lexicographic order.
``_walk`` starts the walk from the optimum's forest made
lexicographically smaller by single exchanges (``_descend``).
``max_forest`` takes the first leaf as its witness and
``enumerate_max_forests`` lists every leaf. Each witness costs at most
about 4n queries; the number of forests is not bounded.

Vertices live in a single 2n-bit space, V1 ids first, with one adjacency
row per vertex (``_adjacency``). The search's included forest is a tuple
of component masks, each the union of its vertices' neighbourhoods
(``_merge``). Including a vertex merges the components it touches, and a
vertex seen by two of the merged pieces has two neighbours in one
component: it is dead, since joining would close a cycle. Components only
merge, so a dead vertex stays dead, and no acyclicity test or union-find
is needed.

Before any node, ``largest`` merges the forced-in set and asks once
whether degree counting alone rules out a forest above the floor
(``_count_refutes``), over the forced-in set and the free vertices the
merge leaves alive; a first-forest query then grows a greedy forest
(``_greedy_forest``) from the forced-in set, stopped above the floor, and
only then searches. The optimum, which must prove optimality, improves a
maximal greedy forest of the whole graph (``_grown``) by (1, 2)-swaps
(``_swap_forest``) first, regrowing after each swap the same way; where
the root's bounds leave room far above that swap forest, first-forest
queries climb from it instead of one search, and a kick (``_kick``) lifts
each forest a query finds before the next query asks for more. At the
optimum's root the count is the instance form of the paper's degree-sum
bound ``theorems.bound_g``: every graph with minimum degree at least
n/2 + 1 closes there, on f = n + 1. On a structure sweep the count
refutes most of the lex walk's queries and the greedy, stopped at the
target, answers most of the rest, neither with a node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterator

from .core import BalancedBipartiteGraph, VertexSubset, _forest_masks
from .errors import InstanceTooLargeError, PostconditionError

__all__ = [
    "BRUTE_FORCE_VERTEX_CAP",
    "SOLVER_PART_CAP",
    "SolveResult",
    "max_forest",
    "max_forest_bruteforce",
    "enumerate_max_forests",
    "decycling_number",
]

# hard limit on 2n for the subset-scan oracle
BRUTE_FORCE_VERTEX_CAP = 24
# adjacency rows must fit one machine word
SOLVER_PART_CAP = 64
# the optimum climbs by first-forest queries (``_walk``) when the root
# bound lies at least this far above the swap forest. Against the
# include-first optimum, max_forest took random_bipartite(36, 0.2, 7) from
# 74 713 to 13 700 nodes, the n = 40 rows (p = 0.2, 0.15, seed 7) from
# 385 304 and 347 836 to 180 984 and 160 138, the solve-sparse corpus from
# 13 331 to 12 712, and 128 G(n, n, p) graphs (n = 22-28, p = 0.15-0.3,
# seeds 1-8, ``tools/rows.py grid``) from 404 139 to 330 733. Gaps of 0, 4,
# 5 and 7 took the corpus to 15 349, 14 407, 13 248 and 13 331 (7 fires on
# none of it) and the grid to 299 330, 299 328, 309 552 and 356 842: no gap
# serves both sets, and 6 is the corpus's best
_UPWARD_GAP = 6


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: optimum, witness, and search statistics."""

    forest_number: int
    witness: VertexSubset
    decycling_number: int
    nodes_explored: int
    elapsed: float


def max_forest_bruteforce(g: BalancedBipartiteGraph,
                          cap: int = BRUTE_FORCE_VERTEX_CAP) -> SolveResult:
    """Scan vertex subsets by decreasing size; the first acyclic one wins.

    Subsets of equal size are visited in lexicographic order of their global
    vertex ids, so the returned witness is the lexicographically smallest
    one of maximum size. Works on any graph with 2n <= cap vertices.
    """
    nv = 2 * g.n
    if nv > cap:
        raise InstanceTooLargeError(
            f"{nv} vertices exceed the subset-scan cap of {cap}")
    t0 = time.perf_counter()
    n = g.n
    full = (1 << n) - 1
    adj1 = g.adj1
    bits = [1 << v for v in range(nv)]
    tested = 0
    for size in range(nv, 0, -1):
        for combo in combinations(bits, size):
            s = sum(combo)
            s1 = s & full
            s2 = s >> n
            tested += 1
            if _forest_masks(adj1, n, s1, s2):
                return SolveResult(size, VertexSubset(s1, s2), nv - size,
                                   tested, time.perf_counter() - t0)
    return SolveResult(0, VertexSubset(0, 0), nv, tested,
                       time.perf_counter() - t0)


def _adjacency(g: BalancedBipartiteGraph) -> tuple[int, ...]:
    """Adjacency rows over the 2n-bit vertex space, V1 ids first."""
    return tuple(row << g.n for row in g.adj1) + g.adj2


def _merge(comps: tuple[int, ...], b: int,
           row: int) -> tuple[tuple[int, ...], int]:
    """Join vertex ``b`` (one bit), whose neighbourhood is ``row``, to the
    components it touches. Each component is kept as the union of its
    vertices' neighbourhoods. Returns the new components and the vertices
    seen by two of the merged pieces: each has two neighbours in the joined
    component, so it would close a cycle. When ``b`` touches two or more
    pieces it sees them all, so it is among the returned vertices itself,
    and a caller that keeps ``b`` must mask it out."""
    dead = 0
    rest = []
    for c in comps:
        if c & b:
            dead |= row & c
            row |= c
        else:
            rest.append(c)
    rest.append(row)
    return tuple(rest), dead


def _edge_cut_refutes(bucket: list[int], r: int, top: int, total: int,
                      floor: int, edges: int) -> bool:
    """True when the edge cut rules out an induced forest F of more than
    ``floor`` vertices with s <= F <= s | r, in an active graph s | r of
    ``total`` > ``floor`` vertices whose forced-in part s is a forest.

    ``bucket[d]`` holds exactly the active vertices of active degree d
    (``_filed``), no candidate lies above ``bucket[top]``, and the active
    graph has m = ``edges`` edges; its number of vertices of positive
    degree is p = ``total`` minus the popcount of bucket 0. An isolated
    vertex joins any forest as a component of its own, so we may take F to
    hold them all; then its dropped set D = (s | r) - F lies in r, holds
    only vertices of positive degree, and has at most k = total - floor - 1
    of them. F keeps at least m - deg(D) edges on its p - |D| vertices of
    positive degree, and a forest has at most that many minus one, so
    deg(D) - |D| >= m - p + 1. Each candidate of positive degree adds at
    least 0 to deg(D) - |D|, so its largest value is S_k - k with S_k the
    sum of the k largest such degrees, and k capped at their number. S_k is
    read from the buckets top down, the popcount of ``bucket[d] & r`` at a
    time, and the read stops after k candidates, before bucket 0: a
    zero-degree candidate would add -1 and could refute a forest that
    exists. Only candidates count, never s: no forest below the node drops
    s. S_k - k never falls as k grows, so one test at the largest k
    decides, and the read stops early once the sum reaches m - p + 1. An
    edgeless active graph is a forest and is never refuted.
    """
    if not edges:
        return False
    k = total - floor - 1
    need = edges - total + bucket[0].bit_count() + 1
    for d in range(top, 0, -1):
        c = (bucket[d] & r).bit_count()
        if c >= k:
            return need > k * (d - 1)
        k -= c
        need -= c * (d - 1)
        if need <= 0:
            return False
    return need > 0


def _filed(adj: tuple[int, ...], act: int,
           ids: int) -> tuple[list[int], list[int]]:
    """The degrees within the active set ``act`` of the ids in ``ids``, as
    a list by global id with 0 for every other id, and those ids filed by
    degree: ``bucket[d]``, for d from 0 to n, holds the ids of degree d."""
    deg = [0] * len(adj)
    bucket = [0] * (len(adj) // 2 + 1)
    while ids:
        b = ids & -ids
        ids ^= b
        u = b.bit_length() - 1
        deg[u] = d = (adj[u] & act).bit_count()
        bucket[d] |= b
    return deg, bucket


def _take_out(adj: tuple[int, ...], deg: list[int], bucket: list[int],
              gone: int, act: int) -> int:
    """Take the filed ids ``gone`` out of the degrees and the buckets of
    ``_filed``, in place, and move each id of ``act`` down by its number of
    neighbours in ``gone``; ``act`` and ``gone`` must be disjoint. Returns
    the number of edges that left with ``gone``: its degrees count an edge
    inside it twice and an edge to ``act`` once, so (deg(gone) + the edges
    from ``gone`` to ``act``) / 2."""
    cut = 0
    near = 0
    m = gone
    while m:
        b = m & -m
        m ^= b
        u = b.bit_length() - 1
        bucket[deg[u]] ^= b
        cut += deg[u]
        deg[u] = 0
        near |= adj[u]
    near &= act
    while near:
        b = near & -near
        near ^= b
        u = b.bit_length() - 1
        d = deg[u]
        k = (adj[u] & gone).bit_count()
        cut += k
        bucket[d] ^= b
        deg[u] = d = d - k
        bucket[d] |= b
    return cut >> 1


def _greedy_forest(adj: tuple[int, ...], s: int, comps: tuple[int, ...],
                   live: int, stop: int) -> int:
    """Grow the forest ``s``, with component masks ``comps`` (see
    ``_merge``), from the live vertices ``live``; returns its mask over the
    global ids.

    Repeatedly joins the live vertex with the fewest active (``s | live``)
    neighbours, lowest id on ties; the vertices the join kills leave. Stops
    once the forest holds ``stop`` vertices or no live vertex is left; a
    ``stop`` of 2n (``_grown``) grows a forest maximal within ``s | live``.

    The live vertices are filed by active degree once (``_filed``), so the
    pick is the lowest bit of the lowest non-empty bucket. A join keeps the
    active set but for the vertices it kills, and those leave by
    ``_take_out``, which moves their live neighbours down.
    """
    size = s.bit_count()
    deg, bucket = _filed(adj, s | live, live)
    low = 0
    while live and size < stop:
        while not bucket[low]:
            low += 1
        v = bucket[low] & -bucket[low]
        bucket[low] ^= v
        comps, dead = _merge(comps, v, adj[v.bit_length() - 1])
        s |= v
        size += 1
        # v leaves live before the kills are masked: a join that merges two
        # pieces returns v among them
        live ^= v
        dead &= live
        if dead:
            live ^= dead
            _take_out(adj, deg, bucket, dead, live)
            low = 0
    return s


def _components(adj: tuple[int, ...],
                s: int) -> tuple[tuple[int, ...], int] | None:
    """``_merge`` every vertex of ``s`` in turn; returns the component
    masks and every vertex with two neighbours in one component (the
    set's own vertices among them), or None when ``s`` is cyclic: a
    vertex seen by two pieces before it joins closes a cycle."""
    comps: tuple[int, ...] = ()
    dead = 0
    while s:
        b = s & -s
        s ^= b
        if b & dead:
            return None
        comps, d = _merge(comps, b, adj[b.bit_length() - 1])
        dead |= d
    return comps, dead


def _grown(adj: tuple[int, ...], s: int) -> int:
    """The forest ``s`` grown by ``_greedy_forest`` into a maximal forest
    of the whole graph; ``s`` must be a forest."""
    comps, dead = _components(adj, s)
    return _greedy_forest(adj, s, comps, ((1 << len(adj)) - 1) & ~(s | dead),
                          len(adj))


def _freeing(adj: tuple[int, ...], s: int) -> Iterator[tuple[int, int]]:
    """For each vertex y outside the forest ``s`` in ascending id, the
    vertices x of ``s`` for which s - x + y is a forest, as ``(y, mask)``
    when there is one.

    s - x + y is a forest exactly when no two neighbours of y share a
    component of s - x. Two neighbours u and w share one exactly when they
    lie in the same tree of s and x is not on the tree path between them,
    ends included. So a y with two neighbours in each of two trees is freed
    by no x, and a y with at most one neighbour per tree by every x, since
    it joins s as it is. Otherwise y is blocked by one tree, and its
    freeing set is the intersection of the paths between pairs of its
    neighbours in that tree. One BFS roots each tree at its lowest id and
    records each vertex's root path anc[v], v included. The u-w path is
    then anc[u] ^ anc[w] plus their lowest common ancestor, the vertex
    whose root path is anc[u] & anc[w]; the tree's root is the lowest bit
    of any of its root paths.
    """
    anc: dict[int, int] = {}
    last: dict[int, int] = {}  # a root path -> the vertex it ends at
    trees: dict[int, int] = {}  # a tree's root -> the tree
    left = s
    while left:
        root = left & -left
        left ^= root
        anc[root] = last[root] = root
        queue = [root]
        for v in queue:
            a = anc[v]
            m = adj[v.bit_length() - 1] & left
            left ^= m
            while m:
                b = m & -m
                m ^= b
                anc[b] = p = a | b
                last[p] = b
                queue.append(b)
        trees[root] = sum(queue)
    outside = ((1 << len(adj)) - 1) & ~s
    while outside:
        y = outside & -outside
        outside ^= y
        nb = adj[y.bit_length() - 1] & s
        pair = 0  # y's neighbours in the one tree holding two of them
        m = nb
        while m:
            a = anc[m & -m]
            t = trees[a & -a]
            m &= ~t
            if (nb & t).bit_count() > 1:
                if pair:
                    break
                pair = nb & t
        else:
            free = s
            paths = [anc[u] for u in _bits(pair)]
            for i, a in enumerate(paths):
                for c in paths[i + 1:]:
                    free &= a ^ c | last[a & c]
            if free:
                yield y, free


def _bits(m: int) -> list[int]:
    """The bits of ``m``, lowest first."""
    out = []
    while m:
        b = m & -m
        m ^= b
        out.append(b)
    return out


def _swap_forest(adj: tuple[int, ...], s: int) -> int:
    """Improve the forest ``s`` by (1, 2)-swaps until none is left: drop
    one vertex x, add two vertices y and z, then grow the forest greedily
    again (the 2-improvement of Andrade, Resende and Werneck, J.
    Heuristics 18, 2012, with the forest test for the independence test).
    The swap made is the first in ascending ids (``_first_swap``), so the
    result depends only on the arguments. Every swap grows the forest, so
    there are at most 2n of them. ``s`` is maximal in every call, the
    optimum's greedy forest or a kick's regrown one (``_grown``), but need
    not be: a vertex that joins it as it stands is freed by every x."""
    while move := _first_swap(adj, s):
        s = _grown(adj, s ^ move)
    return s


def _kick(adj: tuple[int, ...], s: int) -> int:
    """Perturb the forest ``s`` and keep what the swaps lift above it,
    until nothing does: the iterated local search of Andrade, Resende and
    Werneck (see ``_swap_forest``), made deterministic by ascending ids.

    Each vertex y outside s, in ascending id, is forced in: y's forest
    neighbours leave, y joins and the forest grows greedily again to a
    maximal one (``_grown``). The kicked set is a forest, since y joins it
    with no neighbour. Only a regrown forest at least as large as s is
    improved by (1, 2)-swaps; a swapped forest larger than s replaces it,
    and the scan restarts from the lowest id outside it. Every gain grows
    the forest, so there are at most 2n of them, and a second call returns
    its result unchanged."""
    full = (1 << len(adj)) - 1
    left = full & ~s
    while left:
        y = left & -left
        left ^= y
        kicked = _grown(adj, s & ~adj[y.bit_length() - 1] | y)
        if kicked.bit_count() >= s.bit_count():
            kicked = _swap_forest(adj, kicked)
            if kicked.bit_count() > s.bit_count():
                s = kicked
                left = full & ~s
    return s


def _first_swap(adj: tuple[int, ...], s: int) -> int:
    """The first (1, 2)-swap of the forest ``s``, scanning x, then
    y, then z in ascending id, as the mask x | y | z, or 0 when there is
    none. Each of y and z must be freed by x (``_freeing``), so only an x
    that frees two is a candidate; for it, the pieces of s - x take y by
    ``_merge``, and z may follow when that merge leaves it alive."""
    frees = list(_freeing(adj, s))
    once = twice = 0
    for _, f in frees:
        twice |= once & f
        once |= f
    for x in _bits(twice):
        ys = [y for y, f in frees if f & x]
        comps = _components(adj, s ^ x)[0]
        for i, y in enumerate(ys):
            dead = _merge(comps, y, adj[y.bit_length() - 1])[1]
            for z in ys[i + 1:]:
                if not z & dead:
                    return x | y | z
    return 0


def _descend(adj: tuple[int, ...], s: int) -> int:
    """Make the forest ``s`` smaller in lexicographic order at its size:
    while some vertex y outside it is freed (``_freeing``) by dropping a
    vertex w > y, add the lowest such y and drop the highest such w. Each
    move lowers the sum of the ids, so the descent ends."""
    while True:
        for y, free in _freeing(adj, s):
            free &= -(y << 1)
            if free:
                s ^= y | 1 << free.bit_length() - 1
                break
        else:
            return s


class _Search:
    """Branch-and-bound over include/exclude vertex decisions.

    A node's state is its included mask ``s``, its candidate mask ``r``
    (active = s | r) and the included forest's component masks (see the
    module docstring). A candidate killed by a merge is excluded at once.
    The state is passed down per frame, so backtracking undoes nothing.

    The search answers two questions only: the largest forest inside the
    active set that holds ``s``, and whether one of a target size exists
    (``largest`` asked for the first). Propagation may therefore discard
    forests as long as one of the same size survives. A live candidate v
    with at most two active neighbours joins. Let F be a target-size forest
    that holds ``s``, avoids v and lies in ``s | r``. If at most one
    neighbour of v lies in F, F + v is a larger forest. Otherwise v has two
    neighbours u and w in F, and F + v closes one cycle, through the u-w
    path P of F. P has a vertex x outside ``s``, or u and w would share a
    component of ``s`` and v would be dead. So F + v - x is a forest of the
    same size that holds ``s`` and v. This is the degree-2 reduction for
    feedback vertex set.

    Propagation works from a dirty mask, lowest id first. A candidate's
    active degree only drops when a neighbour is excluded, so only
    neighbours of newly excluded vertices turn dirty; the root marks every
    candidate dirty. The join is not monotone: joining one candidate can
    kill another that had two active neighbours too. So the fixpoint
    depends on the firing order, which is fixed, and the search stays
    deterministic.

    A node is pruned by the edge-cut bound (``_edge_cut_refutes``). A
    forest below the node keeps ``s``, so the bound counts only the
    candidates' degrees among those a forest may drop, as exact feedback
    vertex set algorithms bound over the undecided vertices (Fomin,
    Gaspers, Pyatkin & Razgon, Algorithmica 52, 2008; Xiao & Nagamochi,
    J. Comb. Optim. 30, 2015). An active vertex with no active neighbour
    is a component of every forest that takes it, so a forest carries one
    edge fewer for each such vertex, and a zero-degree candidate stays out
    of the dropped degrees. After propagation every candidate has at
    least three active neighbours, so the search hands the bound none,
    but the bound does not rely on it: it reads the candidates' degrees
    from the degree buckets below, top down, and stops before bucket 0.

    Branch vertex: the candidate of maximum active degree, then the most
    neighbours in ``s``, then the highest global id. Including a candidate
    with neighbours in ``s`` merges components of ``s`` and kills every
    candidate two merged pieces see, so the include child shrinks most;
    exact feedback vertex set algorithms branch next to the forced forest
    for the same reason (Fomin et al., above). The pick walks only the
    candidates of the top bucket, one popcount each, and only at nodes
    that branch: the incumbent, leaf and bound tests return before it.

    Child order: the search for the largest forest explores the include
    child first; a search for the first forest (``first``) explores the
    exclude child first. Dropping the candidate of highest degree is what
    the greedy forest does, so a forest of the target size turns up sooner.
    This is value ordering that tries to succeed first (Geelen, "Dual
    viewpoint heuristics for binary constraint satisfaction problems", ECAI
    1992). Every search starts with no incumbent and its floor as the size
    to beat, so a first-forest search's first leaf is an answer and ends
    it. One that refutes never finds a leaf, and no prune or pick reads
    anything else the child order could change, so it explores the same
    tree in either order: the order moves only the searches that find a
    forest, and the lex walk fixes f and every witness whichever forest
    they find.

    The search keeps the active degrees in a list indexed by global id, 0
    for inactive ids, and files the active ids by degree in buckets
    (``_filed``): ``bucket[d]`` holds the active ids of degree d, so bucket
    0 gives the bound its count of vertices of positive degree. ``top``
    bounds the candidates' degrees from above, and ``edges`` is the active
    graph's edge count. A node is handed its parent's list, buckets,
    ``top`` and ``edges`` and the mask of ids the parent's decision
    removed: the branch vertex on the exclude side, the merge's kills on
    the include side. Propagation adds its own kills; its joins keep the
    active set. A node that reaches the bound copies the list and the
    buckets, only when that mask is non-empty, and takes the removed ids
    out in one step (``_take_out``), which moves their active neighbours
    down and returns the edges that left with them. The list, the buckets
    and ``edges`` then hold exactly what a recount over the active set
    would give. Degrees only fall down the search, so the parent's ``top``
    still bounds the candidates; the node lowers it to the highest bucket
    that holds a candidate, where the bound starts its read and the pick
    its walk. Every prune and branch decision is the one a recount would
    make. ``solve`` files its forced state's active set and hands the
    first node nothing removed and ``top`` the last bucket, so that node's
    propagation kills take the same step.
    """

    __slots__ = ("n", "adj", "nodes", "best_size", "best", "first", "order")

    def __init__(self, g: BalancedBipartiteGraph):
        if g.n > SOLVER_PART_CAP:
            raise InstanceTooLargeError(
                f"part size {g.n} exceeds the solver cap of {SOLVER_PART_CAP}")
        self.n = g.n
        self.adj = _adjacency(g)
        self.nodes = 0
        self.best_size = 0
        self.best: int | None = None
        self.first = False
        # per side, the full degrees in ascending order, the bits of their
        # vertices (ids within the side) in the same order and the degrees'
        # prefix sums from 0, shared by every count
        order = []
        for lo in (0, g.n):
            degs = [row.bit_count() for row in self.adj[lo:lo + g.n]]
            ids = sorted(range(g.n), key=degs.__getitem__)
            degs = [degs[u] for u in ids]
            order.append((degs, [1 << u for u in ids],
                          list(accumulate(degs, initial=0))))
        self.order = tuple(order)

    def solve(self, s: int, r: int, comps: tuple[int, ...], floor: int,
              first: bool) -> int | None:
        """Run the search from a forced state: ``s`` is included, with
        component masks ``comps``, and only the live candidates ``r`` may
        join. Returns the largest forest of more than ``floor`` vertices,
        or with ``first`` the first one found, else None."""
        self.best_size = floor
        self.best = None
        self.first = first
        deg, bucket = _filed(self.adj, s | r, s | r)
        self._branch(s, r, comps, r, deg, bucket, self.n, 0, sum(deg) >> 1)
        return self.best

    def _neighbours(self, mask: int) -> int:
        """Union of the neighbourhoods of the vertices in ``mask``."""
        adj = self.adj
        out = 0
        while mask:
            b = mask & -mask
            mask ^= b
            out |= adj[b.bit_length() - 1]
        return out

    def _branch(self, s: int, r: int, comps: tuple[int, ...], dirty: int,
                deg: list[int], bucket: list[int], top: int, gone: int,
                edges: int) -> None:
        self.nodes += 1
        adj = self.adj

        # Propagate forced moves: a dirty candidate with at most two active
        # neighbours joins (the class docstring shows nothing is lost);
        # candidates its joining kills leave, and their neighbours turn dirty.
        dirty &= r
        while dirty:
            b = dirty & -dirty
            dirty ^= b
            row = adj[b.bit_length() - 1]
            if (row & (s | r)).bit_count() > 2:
                continue
            s |= b
            r ^= b
            comps, dead = _merge(comps, b, row)
            dead &= r
            if dead:
                r ^= dead
                gone |= dead
                dirty = (dirty | self._neighbours(dead)) & r

        act = s | r
        total = act.bit_count()
        if total <= self.best_size:
            return

        if not r:
            # acyclic by construction and strictly above the incumbent
            self.best_size = total
            self.best = s
            return

        # take the removed ids out of the degrees, the buckets and the edge
        # count (see the class docstring)
        if gone:
            deg = deg.copy()
            bucket = bucket.copy()
            edges -= _take_out(adj, deg, bucket, gone, act)

        while not bucket[top] & r:
            top -= 1
        if _edge_cut_refutes(bucket, r, top, total, self.best_size, edges):
            return

        # branch on the candidate of maximum active degree, then most
        # neighbours in s, then highest id: only those in the top bucket
        # take a popcount
        most = -1
        m = bucket[top] & r
        while m:
            b = m & -m
            m ^= b
            k = (adj[b.bit_length() - 1] & s).bit_count()
            if k >= most:
                most = k
                v = b
        row = adj[v.bit_length() - 1]
        # a search for the first forest excludes v first, and ends at its
        # first leaf; excluding v turns its neighbours dirty
        if self.first:
            self._branch(s, r ^ v, comps, row, deg, bucket, top, v, edges)
            if self.best is not None:
                return
        # including v: candidates the merge kills leave, and their
        # neighbours turn dirty
        merged, dead = _merge(comps, v, row)
        dead &= r ^ v
        self._branch(s | v, r ^ v ^ dead, merged, self._neighbours(dead),
                     deg, bucket, top, dead, edges)
        if not self.first:
            self._branch(s, r ^ v, comps, row, deg, bucket, top, v, edges)

    def feasible_with(self, inc: int, out: int, target: int) -> int | None:
        """Some induced forest of at least ``target`` >= 1 vertices that
        contains the forced-in set and avoids the forced-out set, as a
        mask, or None when there is none. Which forest is returned never
        changes the lex walk's leaves, only the queries it goes on to
        make."""
        return self.largest(inc, out, target - 1, True)

    def largest(self, inc: int, out: int, floor: int,
                first: bool) -> int | None:
        """The largest induced forest of more than ``floor`` vertices that
        contains the forced-in set and avoids the forced-out set, as a
        mask, or None when there is none; with ``first``, the first such
        forest found.

        Before any node, the forced-in set is merged (``_components``); a
        cyclic one has no such forest. The pool is every vertex in neither
        set that the merge leaves alive, and the degree count
        (``_count_refutes``) is asked once about it. With ``first``, the
        greedy (``_greedy_forest``) then grows the forced-in set from the
        pool and stops above the floor; reaching it, it is the answer.
        Otherwise the search runs from the floor with no incumbent."""
        merged = _components(self.adj, inc)
        if merged is None:
            return None
        comps, dead = merged
        pool = ((1 << 2 * self.n) - 1) & ~(inc | out | dead)
        if _count_refutes(self.n, self.order, inc, pool, floor + 1):
            return None
        if first:
            greedy = _greedy_forest(self.adj, inc, comps, pool, floor + 1)
            if greedy.bit_count() > floor:
                return greedy
        return self.solve(inc, pool, comps, floor, first)

    def _reaches(self, t: int) -> bool:
        """True when neither the degree count nor the edge cut, over the
        full degrees with no propagation, rules out a forest of ``t``
        vertices."""
        full = (1 << 2 * self.n) - 1
        if _count_refutes(self.n, self.order, 0, full, t):
            return False
        deg, bucket = _filed(self.adj, full, full)
        return not _edge_cut_refutes(bucket, full, self.n, 2 * self.n, t - 1,
                                     sum(deg) >> 1)


def _lex_walk(search: _Search, target: int,
              cache: int | None) -> Iterator[int]:
    """Yield every induced forest of exactly ``target`` vertices, as a mask
    over the global ids, in lexicographic order.

    The walk decides ids 0 .. 2n - 1 in turn, include first, and keeps only
    branches that still hold a forest of ``target`` vertices. Each branch
    carries a known such forest ``cache`` (None: not known yet). An id in
    ``cache`` is included without a query; its exclude sibling waits on the
    stack with no cache and costs one ``feasible_with`` call if the walk
    resumes it, unless its forced-in set and the ids still undecided
    together fall short of ``target``: that sibling holds no such forest
    and is not queued. For an id outside ``cache`` the exclude side is
    known to be feasible, so only the include side is asked.

    ``feasible_with(inc, out, t)`` finds a forest of at least t vertices,
    and every subset of a forest is one, so while ``inc`` holds at most t
    vertices it answers whether a forest of exactly t exists. Every branch
    queried is either on the path to a leaf or the dead sibling of a branch
    that is, and each is queried once; no branch too small for ``target``
    is queried.
    """
    nv = 2 * search.n
    # (next id, included mask, excluded mask, known forest or None)
    stack: list[tuple[int, int, int, int | None]] = [(0, 0, 0, cache)]
    while stack:
        v, inc, out, cache = stack.pop()
        if cache is None:
            cache = search.feasible_with(inc, out, target)
            if cache is None:
                continue
        k = inc.bit_count()
        while k < target and v < nv:
            b = 1 << v
            v += 1
            if cache & b:
                if k + nv - v >= target:
                    stack.append((v, inc, out | b, None))
            else:
                found = search.feasible_with(inc | b, out, target)
                if found is None:
                    out |= b
                    continue
                stack.append((v, inc, out | b, cache))
                cache = found
            inc |= b
            k += 1
        if k == target:
            yield inc


def _walk(search: _Search) -> tuple[int, Iterator[int]]:
    """The forest number f and the lex walk over the forests of f vertices.

    A full part plus any opposite vertex induces a forest, so the optimum
    looks for more than n + 1 vertices. The root count (``_count_refutes``)
    for n + 2 comes first, so a graph it refutes closes before any greedy; a
    root that closes on it counts as one node. Otherwise the maximal greedy
    forest of the whole graph (``_grown``), improved by (1, 2)-swaps
    (``_swap_forest``), is the swap forest. When the root's bounds leave
    room for a forest ``_UPWARD_GAP`` vertices above it
    (``_Search._reaches``), the optimum climbs by first-forest queries, from
    the swap forest or n + 1. A query that finds a forest explores the
    exclude child first and ends at its first leaf, and ``_kick`` improves
    that forest before the next query asks for more vertices than the
    improved forest holds: a found forest is often a swap or a kick below a
    larger one. The first refuted query proves the answer; its floor is the
    answer itself, so it explores the tree of a search told the answer in
    advance. Where the swap stalls well below f, this replaces a search that
    climbs from a low incumbent before its proof. Otherwise one
    include-first search asks for more than the swap forest or n + 1, and
    when it finds none the swap forest is the optimum. Its nodes are those
    of a search from the swap forest as incumbent: propagation and the
    branch pick do not read the incumbent, only its size. The optimum's
    queries are asked of ``largest``, not counted as ``feasible_with``
    calls.

    The walk starts from the optimum's forest after a lexicographic
    descent (``_descend``), which changes only its queries and keeps its
    size, or, with none above n + 1, from all of V1 plus vertex n, the
    smallest (n + 1)-set; f is that start's size. Its leaves do not depend
    on which forest of f vertices the optimum found.

    The walk includes every id of its start without a query, so a start
    that were not a forest of f vertices could be yielded as a witness
    unchecked. The optimum's start is therefore checked by ``_forest_masks``
    and its size, and a miss raises ``PostconditionError``; the fallback
    start induces a star and is not checked.
    """
    n = search.n
    adj = search.adj
    full = (1 << 2 * n) - 1
    best = None
    if not _count_refutes(n, search.order, 0, full, n + 2):
        swap = _swap_forest(adj, _grown(adj, 0))
        floor = max(swap.bit_count(), n + 1)
        if floor > n + 1:
            best = swap
        if search._reaches(swap.bit_count() + _UPWARD_GAP):
            while (found := search.largest(0, 0, floor, True)) is not None:
                best = _kick(adj, found)
                floor = best.bit_count()
        elif (found := search.largest(0, 0, floor, False)) is not None:
            best = found
    search.nodes = max(search.nodes, 1)
    if best is None:
        return n + 1, _lex_walk(search, n + 1, (1 << n) - 1 | 1 << n)
    f = best.bit_count()
    best = _descend(adj, best)
    adj1 = [row >> n for row in adj[:n]]
    if (best.bit_count() != f
            or not _forest_masks(adj1, n, best & (1 << n) - 1, best >> n)):
        raise PostconditionError(
            f"the walk's start is not a forest of {f} vertices")
    return f, _lex_walk(search, f, best)


def _count_refutes(n: int,
                   order: tuple[tuple[list[int], list[int], list[int]], ...],
                   inc: int, pool: int, t: int) -> bool:
    """True when degree counting alone rules out an induced forest of ``t``
    vertices that holds ``inc`` and lies in ``inc | pool``.

    ``order`` is ``_Search.order``: per side, the full degrees in ascending
    order, the bits of their vertices in the same order and the degrees'
    prefix sums from 0. A forest with a
    vertices in V1 and b in V2 keeps, of each V1 vertex's neighbours, all
    but at most n - b, so it has at least P1[a - a0] - a(n - b) edges,
    where a0 counts the V1 vertices of ``inc`` and P1[j] sums their degrees
    and the j smallest degrees of the pool's V1 part; the same holds with
    the sides swapped. A forest carries at most a + b - 1 edges, so ``t``
    is refuted when every split a + b = t that ``inc`` and ``pool`` allow
    breaks this. When no split is allowed, the pool is too small. Every
    larger forest that holds ``inc`` holds one of exactly ``t`` vertices,
    so larger sizes are refuted too. That needs t >= 1 and |inc| <= t;
    otherwise nothing is refuted. With ``inc`` empty and the full pool this
    is the root count of ``max_forest``.
    """
    full = (1 << n) - 1
    a0 = (inc & full).bit_count()
    b0 = (inc >> n).bit_count()
    if t < max(1, a0 + b0):
        return False
    free1 = pool & full
    free2 = pool >> n
    lo = max(a0, t - b0 - free2.bit_count())
    hi = min(a0 + free1.bit_count(), t - b0)
    if lo > hi:
        return True
    # P1 and P2: the forced vertices' degree sum, then the pool's degrees in
    # ascending order, each selected by its vertex's bit; a part the pool
    # fills (the root's case) holds no forced vertex and reads the stored
    # prefix sums
    prefix = []
    for (degs, bits, whole), forced, free in zip(order, (inc & full, inc >> n),
                                                 (free1, free2)):
        if free == full:
            prefix.append(whole)
            continue
        start = 0
        kept = []
        for d, b in zip(degs, bits):
            if free & b:
                kept.append(d)
            elif forced & b:
                start += d
        prefix.append(list(accumulate(kept, initial=start)))
    p1, p2 = prefix
    for a in range(lo, hi + 1):
        b = t - a
        if p1[a - a0] - a * (n - b) < t > p2[b - b0] - b * (n - a):
            return False
    return True


def max_forest(g: BalancedBipartiteGraph) -> SolveResult:
    """Exact maximum induced forest via branch-and-bound.

    The search finds the forest number f (``_walk``), and the first leaf of
    the lex walk pins the lexicographically smallest witness of size f, so
    the witness never depends on branching order and matches the
    subset-scan oracle. It is the first witness ``enumerate_max_forests``
    lists, on the same queries.
    """
    n = g.n
    t0 = time.perf_counter()
    search = _Search(g)
    f, walk = _walk(search)
    witness = next(walk, None)
    if witness is None:
        raise PostconditionError(
            f"witness pinning found no forest of {f} vertices")
    return SolveResult(f, VertexSubset(witness & (1 << n) - 1, witness >> n),
                       2 * n - f, search.nodes, time.perf_counter() - t0)


def enumerate_max_forests(g: BalancedBipartiteGraph) -> Iterator[VertexSubset]:
    """Yield every maximum induced forest in lexicographic witness order.

    Witnesses are emitted strictly increasing under the global vertex order
    and free of duplicates; the iterator is lazy, so ``itertools.islice``
    takes the first few.

    The witnesses are the leaves of the lex walk over one exact search
    (``_walk``), the walk ``max_forest`` runs, so the first witness is its
    witness, on the same queries. The search finds the forest number when
    this is called, before anything is yielded. Every ``feasible_with``
    query either lies on the path to a witness or is the dead sibling of a
    branch that does, so each witness costs at most about 4n queries.
    """
    n = g.n
    walk = _walk(_Search(g))[1]
    full1 = (1 << n) - 1
    return (VertexSubset(s & full1, s >> n) for s in walk)


def decycling_number(g: BalancedBipartiteGraph) -> int:
    """Minimum number of vertex removals leaving an acyclic graph.

    Complements the forest number: the two always sum to 2n.
    """
    return max_forest(g).decycling_number
