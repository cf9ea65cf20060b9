"""Exact maximum induced forest solvers and witness enumeration.

Two independent routes compute the forest number: a subset-scan oracle
(``max_forest_bruteforce``) for small instances and a branch-and-bound
search (``max_forest``) for anything up to the single-word part cap. Both
return the lexicographically smallest optimal witness under the global
vertex order (V1 ids first), so their results are directly comparable.
``enumerate_max_forests`` lists every maximum forest in that same order by
a pruned include-first backtrack; its C(2n, f) budget is an upfront bound
on the work, not the number of subsets it visits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .core import BalancedBipartiteGraph, VertexSubset, _forest_masks
from .errors import (BudgetExceededError, InstanceTooLargeError, ParameterError,
                     PostconditionError)

__all__ = [
    "BRUTE_FORCE_VERTEX_CAP",
    "ENUMERATION_BUDGET",
    "SOLVER_PART_CAP",
    "SolveResult",
    "max_forest",
    "max_forest_bruteforce",
    "enumerate_max_forests",
    "decycling_number",
]

# hard limit on 2n for the subset-scan oracle
BRUTE_FORCE_VERTEX_CAP = 24
# refuse enumerations whose candidate count C(2n, f) exceeds this
ENUMERATION_BUDGET = 10 ** 8
# adjacency rows must fit one machine word
SOLVER_PART_CAP = 64
# pair probes per node when hunting a 4-cycle to branch on
_C4_PAIR_BUDGET = 128


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
    adj1 = g.adj1
    tested = 0
    for size in range(nv, 0, -1):
        for combo in combinations(range(nv), size):
            s1 = 0
            s2 = 0
            for v in combo:
                if v < n:
                    s1 |= 1 << v
                else:
                    s2 |= 1 << (v - n)
            tested += 1
            if _forest_masks(adj1, n, s1, s2):
                return SolveResult(size, VertexSubset(s1, s2), nv - size,
                                   tested, time.perf_counter() - t0)
    return SolveResult(0, VertexSubset(0, 0), nv, tested,
                       time.perf_counter() - t0)


class _Search:
    """Branch-and-bound over include/exclude vertex decisions.

    An incremental union-find guards acyclicity of the included set; unions
    are logged on a trail and undone on backtrack (no path compression, so
    an undo is a single parent reset). Branch vertex: a candidate on a
    4-cycle of the active graph when a bounded probe finds one, else the
    candidate of maximum active degree; ties break on lowest global id and
    the include branch is explored first. All of this is deterministic.
    """

    __slots__ = ("n", "adj1", "adj2", "parent", "size", "trail", "nodes",
                 "best_size", "best", "stop_at", "stopped")

    def __init__(self, g: BalancedBipartiteGraph):
        self.n = g.n
        self.adj1 = g.adj1
        self.adj2 = g.adj2
        nv = 2 * g.n
        self.parent = list(range(nv))
        self.size = [1] * nv
        self.trail: list[int] = []
        self.nodes = 0
        self.best_size = 0
        self.best: tuple[int, int] | None = None
        self.stop_at = 0
        self.stopped = False

    def _reset_union_find(self) -> None:
        nv = 2 * self.n
        parent = self.parent
        size = self.size
        for i in range(nv):
            parent[i] = i
            size[i] = 1
        self.trail.clear()

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> bool:
        ra = self._find(a)
        rb = self._find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append(rb)
        return True

    def _rollback(self, mark: int) -> None:
        parent = self.parent
        size = self.size
        trail = self.trail
        while len(trail) > mark:
            rb = trail.pop()
            ra = parent[rb]
            parent[rb] = rb
            size[ra] -= size[rb]

    def _roots_collide(self, mask: int, offset: int) -> bool:
        # True when two set bits already live in one component
        seen = set()
        while mask:
            b = mask & -mask
            mask ^= b
            r = self._find(offset + b.bit_length() - 1)
            if r in seen:
                return True
            seen.add(r)
        return False

    def _prepare_forced(self, in1: int, in2: int) -> bool:
        """Union every edge induced by the forced-in set; False on a cycle."""
        n = self.n
        adj1 = self.adj1
        m = in1
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            row = adj1[i] & in2
            while row:
                rb = row & -row
                row ^= rb
                if not self._union(i, n + rb.bit_length() - 1):
                    return False
        return True

    def solve(self, in1: int, in2: int, r1: int, r2: int,
              best_size: int, best: tuple[int, int] | None, stop_at: int) -> bool:
        """Run the search from a forced state. False when the forced set is
        already cyclic (only possible with nonempty forced includes)."""
        self._reset_union_find()
        self.best_size = best_size
        self.best = best
        self.stop_at = stop_at
        self.stopped = False
        if not self._prepare_forced(in1, in2):
            return False
        self._branch(in1, in2, r1, r2)
        return True

    def _branch(self, in1: int, in2: int, r1: int, r2: int) -> None:
        self.nodes += 1
        mark = len(self.trail)
        n = self.n
        adj1 = self.adj1
        adj2 = self.adj2

        # Propagate forced moves to a fixpoint:
        #  - a candidate with at most one active neighbour always joins
        #    (adding it to any forest keeps a forest, so nothing is lost)
        #  - a candidate whose included neighbours already share a component
        #    can never join (it would close a cycle)
        while True:
            act1 = in1 | r1
            act2 = in2 | r2
            changed = False
            m = r1
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                if (adj1[i] & act2).bit_count() <= 1:
                    r1 ^= b
                    in1 |= b
                    nb = adj1[i] & in2
                    if nb:
                        self._union(i, n + nb.bit_length() - 1)
                    changed = True
                else:
                    nb = adj1[i] & in2
                    if nb.bit_count() >= 2 and self._roots_collide(nb, n):
                        r1 ^= b
                        changed = True
            m = r2
            while m:
                b = m & -m
                m ^= b
                j = b.bit_length() - 1
                if (adj2[j] & act1).bit_count() <= 1:
                    r2 ^= b
                    in2 |= b
                    nb = adj2[j] & in1
                    if nb:
                        self._union(nb.bit_length() - 1, n + j)
                    changed = True
                else:
                    nb = adj2[j] & in1
                    if nb.bit_count() >= 2 and self._roots_collide(nb, 0):
                        r2 ^= b
                        changed = True
            if not changed:
                break

        size_in = in1.bit_count() + in2.bit_count()
        size_r = r1.bit_count() + r2.bit_count()
        total = size_in + size_r
        if total <= self.best_size:
            self._rollback(mark)
            return

        if size_r == 0:
            # acyclic by construction and strictly above the incumbent
            self.best_size = size_in
            self.best = (in1, in2)
            if self.stop_at and size_in >= self.stop_at:
                self.stopped = True
            self._rollback(mark)
            return

        act1 = in1 | r1
        act2 = in2 | r2
        # Forest edge cut: a size-s subset keeps at least
        # m_active - (sum of the total-s largest active degrees) edges,
        # while a forest on s vertices carries at most s - 1. Prune when no
        # s above the incumbent passes.
        degs = []
        m_act = 0
        m = act1
        while m:
            b = m & -m
            m ^= b
            d = (adj1[b.bit_length() - 1] & act2).bit_count()
            degs.append(d)
            m_act += d
        m = act2
        while m:
            b = m & -m
            m ^= b
            degs.append((adj2[b.bit_length() - 1] & act1).bit_count())
        degs.sort(reverse=True)
        prefix = [0]
        acc = 0
        for d in degs:
            acc += d
            prefix.append(acc)
        feasible = 0
        for s in range(total, self.best_size, -1):
            if m_act - prefix[total - s] <= s - 1:
                feasible = s
                break
        if feasible <= self.best_size:
            self._rollback(mark)
            return

        gid = self._pick_branch(r1, r2, act1, act2)
        if gid < n:
            bit = 1 << gid
            mark2 = len(self.trail)
            ok = True
            nb = adj1[gid] & in2
            while nb:
                rb = nb & -nb
                nb ^= rb
                if not self._union(gid, n + rb.bit_length() - 1):
                    ok = False
                    break
            if ok:
                self._branch(in1 | bit, in2, r1 ^ bit, r2)
            self._rollback(mark2)
            if self.stopped:
                self._rollback(mark)
                return
            self._branch(in1, in2, r1 ^ bit, r2)
        else:
            j = gid - n
            bit = 1 << j
            mark2 = len(self.trail)
            ok = True
            nb = adj2[j] & in1
            while nb:
                rb = nb & -nb
                nb ^= rb
                if not self._union(rb.bit_length() - 1, gid):
                    ok = False
                    break
            if ok:
                self._branch(in1, in2 | bit, r1, r2 ^ bit)
            self._rollback(mark2)
            if self.stopped:
                self._rollback(mark)
                return
            self._branch(in1, in2, r1, r2 ^ bit)
        self._rollback(mark)

    def _find_c4(self, act1: int, act2: int) -> tuple[int, int, int, int] | None:
        """Bounded probe for a 4-cycle among active vertices.

        Scans V1 pairs in ascending id order and stops at the pair budget;
        returns the four global ids of the first 4-cycle found, else None.
        """
        adj1 = self.adj1
        n = self.n
        ids = []
        m = act1
        while m:
            b = m & -m
            m ^= b
            ids.append(b.bit_length() - 1)
        budget = _C4_PAIR_BUDGET
        for a in range(len(ids) - 1):
            ra = adj1[ids[a]] & act2
            if ra.bit_count() < 2:
                continue
            for c in range(a + 1, len(ids)):
                budget -= 1
                common = ra & adj1[ids[c]]
                if common.bit_count() >= 2:
                    b1 = common & -common
                    j1 = b1.bit_length() - 1
                    common ^= b1
                    j2 = (common & -common).bit_length() - 1
                    return ids[a], ids[c], n + j1, n + j2
                if budget <= 0:
                    return None
        return None

    def _pick_branch(self, r1: int, r2: int, act1: int, act2: int) -> int:
        n = self.n
        adj1 = self.adj1
        adj2 = self.adj2
        cyc = self._find_c4(act1, act2)
        if cyc is not None:
            best_gid = -1
            best_deg = -1
            for gid in cyc:
                if gid < n:
                    if not r1 >> gid & 1:
                        continue
                    d = (adj1[gid] & act2).bit_count()
                else:
                    if not r2 >> (gid - n) & 1:
                        continue
                    d = (adj2[gid - n] & act1).bit_count()
                if d > best_deg:
                    best_deg = d
                    best_gid = gid
            if best_gid >= 0:
                return best_gid
        best_gid = -1
        best_deg = -1
        m = r1
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            d = (adj1[i] & act2).bit_count()
            if d > best_deg:
                best_deg = d
                best_gid = i
        m = r2
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            d = (adj2[j] & act1).bit_count()
            if d > best_deg:
                best_deg = d
                best_gid = n + j
        return best_gid

    def feasible_with(self, in1: int, in2: int, out1: int, out2: int,
                      target: int) -> tuple[int, int] | None:
        """Search for any induced forest of size ``target`` that contains the
        forced-in set and avoids the forced-out set; returns its masks."""
        full = (1 << self.n) - 1
        r1 = full & ~in1 & ~out1
        r2 = full & ~in2 & ~out2
        if not self.solve(in1, in2, r1, r2, target - 1, None, target):
            return None
        return self.best if self.best_size >= target else None


def max_forest(g: BalancedBipartiteGraph) -> SolveResult:
    """Exact maximum induced forest via branch-and-bound.

    After the optimum f is known, a prefix-fixing pass re-queries the search
    to pin the lexicographically smallest witness of size f, so the witness
    never depends on branching order and matches the subset-scan oracle.
    """
    n = g.n
    if n > SOLVER_PART_CAP:
        raise InstanceTooLargeError(
            f"part size {n} exceeds the solver cap of {SOLVER_PART_CAP}")
    t0 = time.perf_counter()
    full = (1 << n) - 1
    search = _Search(g)
    # a full part plus any single opposite vertex always induces a forest,
    # so the incumbent starts at n + 1
    search.solve(0, 0, full, full, n + 1, (full, 1), 0)
    f = search.best_size
    cache1, cache2 = search.best  # type: ignore[misc]

    inc1 = inc2 = out1 = out2 = 0
    chosen = 0
    for gid in range(2 * n):
        if chosen == f:
            break
        if gid < n:
            bit = 1 << gid
            if cache1 & bit:
                inc1 |= bit
                chosen += 1
                continue
            found = search.feasible_with(inc1 | bit, inc2, out1, out2, f)
            if found is None:
                out1 |= bit
            else:
                inc1 |= bit
                chosen += 1
                cache1, cache2 = found
        else:
            bit = 1 << (gid - n)
            if cache2 & bit:
                inc2 |= bit
                chosen += 1
                continue
            found = search.feasible_with(inc1, inc2 | bit, out1, out2, f)
            if found is None:
                out2 |= bit
            else:
                inc2 |= bit
                chosen += 1
                cache1, cache2 = found
    if chosen != f:
        raise PostconditionError(
            f"witness pinning chose {chosen} vertices, expected {f}")
    return SolveResult(f, VertexSubset(inc1, inc2), 2 * n - f,
                       search.nodes, time.perf_counter() - t0)


def enumerate_max_forests(g: BalancedBipartiteGraph, cap: int = 0, *,
                          forest_number: int | None = None,
                          budget: int = ENUMERATION_BUDGET) -> Iterator[VertexSubset]:
    """Yield every maximum induced forest in lexicographic witness order.

    Witnesses are emitted strictly increasing under the global vertex order
    and free of duplicates. ``cap`` > 0 stops after that many witnesses;
    cap = 0 means unbounded. A given ``forest_number`` must lie in
    [n + 1, 2n], the range every graph's forest number falls in. Refuses
    upfront (before yielding anything) when the candidate count C(2n, f)
    exceeds ``budget``; that count bounds the work, but the search itself
    visits far fewer subsets.

    The search is a depth-first, include-first backtrack over global ids
    in increasing order, so witnesses come out in lexicographic order. It
    keeps each component of the included forest as the union of its
    vertices' neighbourhoods. A candidate dies once two of its neighbours
    lie in one component; components only merge, so it stays dead, and
    including a live candidate never closes a cycle. A branch is cut when
    the live candidates left cannot fill the forest up to f.
    """
    n = g.n
    nv = 2 * n
    if forest_number is None:
        forest_number = max_forest(g).forest_number
    elif not n + 1 <= forest_number <= nv:
        raise ParameterError(
            f"forest number {forest_number} outside [{n + 1}, {nv}] "
            f"for part size {n}")
    total = math.comb(nv, forest_number)
    if total > budget:
        raise BudgetExceededError(
            f"C({nv}, {forest_number}) = {total} candidate subsets exceed "
            f"the enumeration budget of {budget}")
    f = forest_number
    # one 2n-bit vertex space, V1 ids first
    adj = tuple(row << n for row in g.adj1) + g.adj2
    full1 = (1 << n) - 1

    def _iter() -> Iterator[VertexSubset]:
        emitted = 0
        # (included mask, its size, component neighbourhoods, live candidates)
        stack: list[tuple[int, int, tuple[int, ...], int]] = [
            (0, 0, (), (1 << nv) - 1)]
        while stack:
            s, k, comps, live = stack.pop()
            if k == f:
                yield VertexSubset(s & full1, s >> n)
                emitted += 1
                if cap and emitted >= cap:
                    return
                continue
            if k + live.bit_count() < f:
                continue
            b = live & -live
            stack.append((s, k, comps, live ^ b))
            # merge b with every component it touches; a candidate seen by
            # two of the merged parts now has two neighbours in one component
            merged = adj[b.bit_length() - 1]
            dead = 0
            rest = []
            for c in comps:
                if c & b:
                    dead |= merged & c
                    merged |= c
                else:
                    rest.append(c)
            rest.append(merged)
            stack.append((s | b, k + 1, tuple(rest), (live ^ b) & ~dead))

    return _iter()


def decycling_number(g: BalancedBipartiteGraph) -> int:
    """Minimum number of vertex removals leaving an acyclic graph.

    Complements the forest number: the two always sum to 2n.
    """
    return max_forest(g).decycling_number
