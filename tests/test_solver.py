import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbforest.solver as solver
from bbforest import (InstanceTooLargeError, PostconditionError,
                      VertexSubset, complete_balanced, decycling_number,
                      enumerate_max_forests, from_rows, is_induced_forest,
                      max_forest, max_forest_bruteforce, prop1_construction,
                      random_min_degree, thh1_l2, verify_structure)

from .helpers import (edge_cut_oracle, enumerate_forests_oracle,
                      forest_masks_oracle, forest_oracle, greedy_forest_oracle,
                      max_forest_oracle, random_bipartite)


def test_k22():
    res = max_forest(complete_balanced(2))
    assert res.forest_number == 3
    assert res.decycling_number == 1
    assert res.witness == VertexSubset(0b11, 0b01)


def test_c6():
    g = from_rows(3, ["110", "011", "101"])
    res = max_forest(g)
    assert res.forest_number == 5
    assert res.decycling_number == 1


def test_edgeless_keeps_everything():
    g = from_rows(3, [0, 0, 0])
    res = max_forest(g)
    assert res.forest_number == 6
    assert res.witness == VertexSubset(0b111, 0b111)


def test_single_edge():
    g = from_rows(1, ["1"])
    res = max_forest(g)
    assert res.forest_number == 2


def test_k55():
    res = max_forest(complete_balanced(5))
    assert res.forest_number == 6
    assert res.witness == VertexSubset((1 << 5) - 1, 1)


def test_forest_plus_decycling_is_vertex_count():
    for n, p, seed in [(4, 0.3, 1), (5, 0.6, 2), (6, 0.9, 3)]:
        g = random_bipartite(n, p, seed)
        res = max_forest(g)
        assert res.forest_number + res.decycling_number == 2 * n
        assert decycling_number(g) == res.decycling_number


def test_decycling_frozen_values():
    from bbforest import prop1_construction
    assert decycling_number(complete_balanced(2)) == 1
    assert decycling_number(from_rows(4, [0, 0, 0, 0])) == 0
    assert decycling_number(prop1_construction(4)) == 2


def test_witness_always_validates():
    for seed in range(20):
        g = random_bipartite(6, 0.5, seed)
        res = max_forest(g)
        assert res.witness.size == res.forest_number
        assert is_induced_forest(g, res.witness)


def _degree_two_graphs():
    """Graphs where most vertices have degree 2, the regime of the search's
    degree-2 join: even cycles, ladders, thetas (a cycle plus a chord),
    two disjoint cycles and unions of two random perfect matchings."""
    for n in range(2, 9):
        yield from_rows(n, [1 << i | 1 << (i + 1) % n for i in range(n)])
        yield from_rows(n, [(0b111 << i >> 1) & ((1 << n) - 1)
                            for i in range(n)])
        if n >= 4:
            cycle = [1 << i | 1 << (i + 1) % n for i in range(n)]
            cycle[0] |= 1 << n // 2
            yield from_rows(n, cycle)
            h = n // 2
            yield from_rows(n, [1 << i | 1 << (i + 1) % h if i < h
                                else 1 << i | 1 << h + (i + 1 - h) % (n - h)
                                for i in range(n)])
        rng = random.Random(n)
        for _ in range(2):
            yield from_rows(n, [1 << i | 1 << j for i, j in
                                enumerate(rng.sample(range(n), n))])


def test_solver_matches_bruteforce_value_and_witness():
    graphs = [random_bipartite(n, p, seed)
              for n in (2, 3, 4, 5)
              for p in (0.2, 0.5, 0.8)
              for seed in range(8)]
    for g in graphs + list(_degree_two_graphs()):
        exact = max_forest(g)
        brute = max_forest_bruteforce(g)
        assert exact.forest_number == brute.forest_number, g
        # both sides canonicalize to the lexicographically first witness
        assert exact.witness == brute.witness, g


def test_feasible_with_matches_forest_scan():
    # every (inc, out, target) query, answered by a scan over all induced
    # forests; a forest's subsets are forests, so "some forest of at least
    # target vertices holds inc and avoids out" is the question
    rng = random.Random(2024)
    for gi in range(36):
        n = 1 + gi % 6
        g = random_bipartite(n, rng.choice((0.3, 0.5, 0.7)), gi)
        nv = 2 * n
        forests = set(forest_masks_oracle(g))
        search = solver._Search(g)
        for _ in range(50):
            inc = rng.getrandbits(nv) & rng.getrandbits(nv)
            out = rng.getrandbits(nv) & rng.getrandbits(nv) & ~inc
            best = max((f.bit_count() for f in forests
                        if f & inc == inc and not f & out), default=0)
            target = max(1, rng.choice((best, best + 1, rng.randint(1, nv))))
            got = search.feasible_with(inc, out, target)
            assert (got is not None) == (best >= target), (gi, inc, out, target)
            if got is not None:
                assert got & inc == inc and not got & out
                assert got.bit_count() >= target and got in forests


def test_largest_matches_forest_scan():
    # the largest forest above a floor that holds inc and avoids out, or
    # None when no forest above the floor does, checked against a scan of
    # every induced forest; the optimum asks with nothing forced, so no
    # solve covers the forced sets
    rng = random.Random(27)
    for gi in range(36):
        n = 1 + gi % 6
        g = random_bipartite(n, rng.choice((0.3, 0.5, 0.7)), gi)
        nv = 2 * n
        forests = forest_masks_oracle(g)
        search = solver._Search(g)
        for _ in range(50):
            inc = rng.getrandbits(nv) & rng.getrandbits(nv)
            out = rng.getrandbits(nv) & rng.getrandbits(nv) & ~inc
            best = max((f.bit_count() for f in forests
                        if f & inc == inc and not f & out), default=0)
            floor = max(0, rng.choice((best - 1, best, rng.randint(0, nv))))
            got = search.largest(inc, out, floor, False)
            assert (got is None) == (best <= floor), (gi, inc, out, floor)
            if got is not None:
                assert got & inc == inc and not got & out
                assert got.bit_count() == best
                assert forest_oracle(g, VertexSubset(got & (1 << n) - 1,
                                                     got >> n))


def test_handed_degrees_match_the_active_graph(monkeypatch):
    # a node is handed its parent's active degrees, degree buckets, top and
    # edge count, and the ids the parent's decision removed (a search's
    # first node: solve's filing and no id); with those ids taken out here,
    # each active id must hold its popcount in the node's own active set
    # and every other id 0, each active id must sit in the bucket of that
    # degree, and top must be at least every candidate's degree. The
    # buckets hold the parent's active set s | r | gone and nothing else,
    # bucket 0 its vertices of degree 0, and the edge count must be that
    # set's, which the parent reached the bound with. No removed id has
    # degree 0, and some removed sets hold an edge, where the edges that
    # leave are not the sum of the removed degrees
    branch = solver._Search._branch
    checked = []
    inner = []

    def checking(self, s, r, comps, dirty, deg, bucket, top, gone, edges):
        act = s | r
        nv = 2 * self.n
        assert not gone & act and len(deg) == nv
        got = [deg[u] - (self.adj[u] & gone).bit_count()
               if act >> u & 1 else 0 for u in range(nv)]
        want = [(self.adj[u] & act).bit_count() if act >> u & 1 else 0
                for u in range(nv)]
        assert got == want, (s, r, gone)
        filed = {u: d for d, m in enumerate(bucket)
                 for u in range(nv) if m >> u & 1}
        assert sum(bucket) == act | gone and len(filed) == (act | gone
                                                            ).bit_count()
        assert all(filed[u] - (self.adj[u] & gone).bit_count() == want[u]
                   for u in range(nv) if act >> u & 1), (s, r, gone)
        assert top < len(bucket) and all(
            top >= want[u] for u in range(nv) if r >> u & 1), (s, r, top)
        parent = {u: (self.adj[u] & (act | gone)).bit_count()
                  for u in range(nv) if (act | gone) >> u & 1}
        assert all(filed[u] == parent[u] > 0
                   for u in range(nv) if gone >> u & 1), (s, r, gone)
        assert bucket[0] == sum(1 << u for u, d in parent.items() if not d)
        assert edges == sum(parent.values()) // 2, (s, r, gone)
        inner.append(any(self.adj[u] & gone
                         for u in range(nv) if gone >> u & 1))
        checked.append(1)
        return branch(self, s, r, comps, dirty, deg, bucket, top, gone, edges)

    monkeypatch.setattr(solver._Search, "_branch", checking)
    rng = random.Random(10)
    for gi in range(90):
        n = 6 + gi % 15
        g = random_bipartite(n, (0.15, 0.25, 0.6)[gi % 3], gi)
        max_forest(g)
        search = solver._Search(g)
        for _ in range(3):
            nv = 2 * n
            inc = rng.getrandbits(nv) & rng.getrandbits(nv) & rng.getrandbits(nv)
            out = rng.getrandbits(nv) & rng.getrandbits(nv) & ~inc
            search.feasible_with(inc, out, n + 1)
    assert len(checked) > 10_000 and sum(inner) > 250, (len(checked),
                                                         sum(inner))


def test_greedy_forest_is_a_forest_no_larger_than_f():
    for gi in range(40):
        n = 2 + gi % 19
        g = random_bipartite(n, (0.15, 0.3, 0.6, 0.9)[gi % 4], gi)
        s = solver._grown(solver._adjacency(g), 0)
        assert forest_oracle(g, VertexSubset(s & (1 << n) - 1, s >> n)), gi
        assert s.bit_count() <= max_forest(g).forest_number, gi
        for v in range(2 * n):
            t = s | 1 << v
            assert t == s or not forest_oracle(
                g, VertexSubset(t & (1 << n) - 1, t >> n)), (gi, v)


def test_greedy_forest_matches_the_scan_oracle(monkeypatch):
    # the bucketed greedy must join what a scan over every live vertex
    # joins, so both return the same mask; the states cover a stop at or
    # below |s|, a stop out of reach, an empty live set and joins that
    # merge two pieces, which return the joining vertex among their kills
    merge = solver._merge
    two_pieces = []

    def spied(comps, b, row):
        merged = merge(comps, b, row)
        if merged[1] & b:
            two_pieces.append(b)
        return merged

    monkeypatch.setattr(solver, "_merge", spied)
    rng = random.Random(30)
    cases = Counter()
    for gi in range(120):
        n = 2 + gi % 15
        nv = 2 * n
        adj = solver._adjacency(
            random_bipartite(n, (0.15, 0.3, 0.5, 0.8)[gi % 4], 300 + gi))
        for _ in range(40):
            s = 0
            for v in rng.sample(range(nv), rng.randint(0, nv)):
                if solver._components(adj, s | 1 << v) is not None:
                    s |= 1 << v
            comps, dead = solver._components(adj, s)
            live = ((1 << nv) - 1) & ~(s | dead)
            live &= rng.choice((live, 0, rng.getrandbits(nv)))
            size = s.bit_count()
            stop = rng.choice((0, size, size + rng.randint(1, nv), 2 * nv))
            got = solver._greedy_forest(adj, s, comps, live, stop)
            assert got == greedy_forest_oracle(adj, s, comps, live, stop), (
                gi, s, live, stop)
            cases["stop <= |s|"] += live != 0 and stop <= size
            cases["out of reach"] += got.bit_count() < stop and live != 0
            cases["empty live"] += not live
    assert min(cases.values()) > 500 and len(two_pieces) > 10_000, (
        cases, len(two_pieces))


def test_greedy_forest_skipped_when_the_root_count_closes(monkeypatch):
    # feasibility queries may complete greedily, stopped above their floor,
    # the enumeration's first one with nothing forced too; only the optimum's
    # local search grows a maximal forest
    def refuse(adj, s):
        raise AssertionError("greedy start ran after the root count closed")

    monkeypatch.setattr(solver, "_grown", refuse)
    for n in (32, 48, 64):
        res = max_forest(random_min_degree(n, (n + 3) // 2, n))
        assert (res.forest_number, res.nodes_explored) == (n + 1, 1)
    report = verify_structure(9, samples=3, seed=1, check="T2")
    assert report.instances_checked == 3 and not report.counterexamples


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.floats(0.1, 0.9), st.integers(0, 10 ** 6))
def test_solver_matches_subset_scan(n, p, seed):
    g = random_bipartite(n, p, seed)
    assert max_forest(g).forest_number == max_forest_oracle(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(0, 1), st.integers(0, 10 ** 6))
def test_forest_number_floor(n, p, seed):
    # n + 1 vertices can always be kept acyclic
    g = random_bipartite(n, p, seed)
    assert max_forest(g).forest_number >= n + 1


def test_edge_addition_never_helps():
    # forest number is antitone under adding edges; checked by the oracle
    for seed in range(25):
        n = 2 + seed % 5
        g = random_bipartite(n, 0.4, seed)
        spot = next(((i, j) for i in range(n) for j in range(n)
                     if not g.adj1[i] >> j & 1), None)
        if spot is None:
            continue
        i, j = spot
        rows = list(g.adj1)
        rows[i] |= 1 << j
        denser = from_rows(n, rows)
        assert (max_forest_bruteforce(denser).forest_number
                <= max_forest_bruteforce(g).forest_number)


def test_bruteforce_cap():
    with pytest.raises(InstanceTooLargeError):
        max_forest_bruteforce(complete_balanced(13))
    with pytest.raises(InstanceTooLargeError):
        max_forest_bruteforce(complete_balanced(3), cap=5)
    assert max_forest_bruteforce(complete_balanced(3), cap=6).forest_number == 4


def test_solver_part_cap():
    rows = [0] * 65
    with pytest.raises(InstanceTooLargeError) as err:
        max_forest(from_rows(65, rows))
    assert "64" in str(err.value)
    # the enumeration refuses at call time too
    with pytest.raises(InstanceTooLargeError):
        enumerate_max_forests(complete_balanced(65))


def test_enumerate_k22():
    g = complete_balanced(2)
    ws = list(enumerate_max_forests(g))
    assert len(ws) == 4
    assert ws == [
        VertexSubset(0b11, 0b01),
        VertexSubset(0b11, 0b10),
        VertexSubset(0b01, 0b11),
        VertexSubset(0b10, 0b11),
    ]


def test_enumerate_is_lex_sorted_and_unique():
    g = from_rows(3, ["110", "011", "101"])
    ws = list(enumerate_max_forests(g))
    assert len(ws) == 6
    keys = []
    for w in ws:
        assert w.size == 5
        assert is_induced_forest(g, w)
        keys.append(w.indices()[0] + tuple(j + 3 for j in w.indices()[1]))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_cap_truncates():
    # the iterator is lazy, so islice caps it
    g = complete_balanced(2)
    assert len(list(islice(enumerate_max_forests(g), 2))) == 2
    assert len(list(enumerate_max_forests(g))) == 4
    assert len(list(islice(enumerate_max_forests(prop1_construction(2)),
                           1))) == 1


@pytest.mark.parametrize("n", (16, 32))
def test_enumerate_complete_balanced_lists_the_one_sided_sets(n):
    # for n >= 3 the maximum forests of K_{n,n} are a full part plus one
    # opposite vertex; in lex order the full-V1 sets come first
    full = (1 << n) - 1
    expected = ([VertexSubset(full, 1 << j) for j in range(n)]
                + [VertexSubset(1 << i, full) for i in range(n)])
    assert list(enumerate_max_forests(complete_balanced(n))) == expected


def test_enumerate_disjoint_k22_copies():
    # five disjoint copies of K_{2,2}: each keeps 3 of its 4 vertices, in
    # 4 ways, so f = 15 and there are 4^5 maximum forests
    rows = [0b11 << (i & ~1) for i in range(10)]
    g = from_rows(10, rows)
    ws = list(enumerate_max_forests(g))
    assert max_forest(g).forest_number == 15
    assert len(ws) == 4 ** 5 == len(set(ws))
    assert all(w.size == 15 and is_induced_forest(g, w) for w in ws)


def _differential_graphs():
    for n in range(2, 8):
        for p in (0.2, 0.4, 0.6):
            for seed in range(2):
                yield random_bipartite(n, p, seed)
    for n in range(3, 10):
        for seed in range(2):
            yield random_min_degree(n, (n + 3) // 2, seed)


def test_enumerate_matches_subset_scan_oracle():
    # the enumeration and a walk started from no known forest both list the
    # oracle's forests: the start moves only the queries, never the leaves
    for g in _differential_graphs():
        f = max_forest(g).forest_number
        full = list(enumerate_max_forests(g))
        assert full == enumerate_forests_oracle(g, f), g
        cold = solver._lex_walk(solver._Search(g), f, None)
        assert [VertexSubset(s & (1 << g.n) - 1, s >> g.n)
                for s in cold] == full, g
        for k in (1, 2, len(full) // 2 + 1):
            assert (list(islice(enumerate_max_forests(g), k))
                    == full[:k]), (g, k)


def test_pinning_postcondition_raises(monkeypatch):
    # a walk that overstates f finds no leaf, which must raise rather than
    # return a bad witness
    walk = solver._lex_walk

    def overstated(search, target, cache):
        return walk(search, target + 1, None)

    monkeypatch.setattr(solver, "_lex_walk", overstated)
    with pytest.raises(PostconditionError):
        max_forest(random_bipartite(4, 0.5, 1))


# a 4-cycle on ids 0, 1, 3, 4 and two isolated vertices: f = 5 > n + 1, so
# the walk starts from the search's forest, and ids 0-4 are a cyclic 5-set
C4_PLUS_TWO = from_rows(3, ["110", "110", "000"])


def test_walk_start_postcondition_raises(monkeypatch):
    # the walk includes its start's ids without a query, so a start that
    # is not a forest must raise rather than become the witness
    monkeypatch.setattr(solver, "_descend", lambda adj, s: 0b11111)
    with pytest.raises(PostconditionError, match="not a forest of 5"):
        max_forest(C4_PLUS_TWO)


def test_enumerate_first_witness_is_solver_witness():
    for seed in range(10):
        g = random_bipartite(4, 0.6, seed)
        res = max_forest(g)
        first = next(enumerate_max_forests(g))
        assert first == res.witness


def test_nodes_explored_positive_and_elapsed_sane():
    res = max_forest(complete_balanced(4))
    assert res.nodes_explored >= 1
    assert res.elapsed >= 0.0


def _two_child_nodes(monkeypatch):
    """Solve 30 random graphs with ``_branch`` recorded; returns, for each
    node that called both children, its search, whether that search wants
    the first forest, and the (s, r) each child was called with, in call
    order."""
    branch = solver._Search._branch
    children = [[]]  # per open call, the (s, r) of the calls it made
    nodes = []

    def recording(self, s, r, comps, dirty, deg, bucket, top, gone, edges):
        children[-1].append((s, r))
        children.append([])
        branch(self, s, r, comps, dirty, deg, bucket, top, gone, edges)
        made = children.pop()
        if len(made) == 2:
            nodes.append((self, self.first, made))

    monkeypatch.setattr(solver._Search, "_branch", recording)
    for gi in range(30):
        n = 8 + gi % 10
        max_forest(random_bipartite(n, (0.2, 0.3, 0.45)[gi % 3], 100 + gi))
    return nodes


def test_branch_vertex_has_maximum_active_degree_then_most_forest_neighbours(
        monkeypatch):
    # a node that calls both children branched on b = s_include ^ s_exclude,
    # and after propagation its included set is s_exclude and its active
    # set s_exclude | r_exclude | b; among the node's candidates
    # r_exclude | b, b must have the maximum active degree, then the most
    # neighbours in s_exclude, then the highest id
    degree_ties = key_ties = nodes = 0
    for search, _, made in _two_child_nodes(monkeypatch):
        # the include child's s is the exclude child's plus b
        (s_in, _), (s_out, r_out) = sorted(made, reverse=True)
        b = s_in ^ s_out
        act = s_out | r_out | b
        keys = {u: ((search.adj[u] & act).bit_count(),
                    (search.adj[u] & s_out).bit_count(), u)
                for u in range(2 * search.n) if (r_out | b) >> u & 1}
        top = max(keys.values())
        assert b == 1 << top[2], (s_out, b)
        nodes += 1
        degree_ties += sum(k[0] == top[0] for k in keys.values()) > 1
        key_ties += sum(k[:2] == top[:2] for k in keys.values()) > 1
    # most nodes tie on the maximum degree; the neighbours in s decide over
    # a quarter of all nodes and the highest id another quarter
    assert nodes > 1000 and degree_ties > nodes // 2
    assert min(degree_ties - key_ties, key_ties) > nodes // 4, (
        nodes, degree_ties, key_ties)


def test_exclude_child_first_only_in_a_first_forest_search(monkeypatch):
    # the exclude child is called with its parent's s, the include child
    # with s plus the branch vertex; the optimum's search wants the largest
    # forest, the pinning queries the first one
    seen = {0: 0, 1: 0}
    for _, first, ((s1, _), (s2, _)) in _two_child_nodes(monkeypatch):
        assert (s1 ^ s2).bit_count() == 1
        exclude_first = s1 < s2
        assert exclude_first == first, (first, s1, s2)
        seen[exclude_first] += 1
    assert min(seen.values()) > 100, seen


def test_count_refutes_only_sizes_above_the_forest_number():
    # nothing forced and the full pool (the root count), then random
    # forced-in and forced-out sets, against a scan of every induced forest;
    # the pool drops the vertices that would close a cycle with the
    # forced-in set, as the search's merge does
    rng = random.Random(12)
    refuted = forced_refuted = 0
    for n in range(1, 7):
        for tenths in range(1, 11):
            g = random_bipartite(n, tenths / 10, 10 * n + tenths)
            nv = 2 * n
            forests = set(forest_masks_oracle(g))
            order = solver._Search(g).order
            assert max(f.bit_count() for f in forests) == max_forest_oracle(g)
            queries = [(0, 0)]
            for _ in range(20):
                inc = rng.getrandbits(nv) & rng.getrandbits(nv)
                queries.append(
                    (inc, rng.getrandbits(nv) & rng.getrandbits(nv) & ~inc))
            for inc, out in queries:
                pool = sum(1 << v for v in range(nv)
                           if not (inc | out) >> v & 1
                           and (inc | 1 << v) in forests)
                best = max((f.bit_count() for f in forests
                            if f & inc == inc and not f & out), default=0)
                for t in range(1, nv + 1):
                    if solver._count_refutes(n, order, inc, pool, t):
                        assert best < t, (g, inc, out, t)
                        refuted += 1
                        forced_refuted += inc != 0
    assert forced_refuted and refuted > forced_refuted


def test_edge_cut_refutes_only_sizes_no_forest_reaches():
    # random forced-in forests s and candidate pools r, every floor below
    # the active count, against a scan of every induced forest: when the
    # bound refutes, no forest F with s <= F <= s | r has more than floor
    # vertices. Pools are drawn without regard to degree, so some hold
    # candidates with no active neighbour, which the bound must leave out
    rng = random.Random(19)
    states = refuted = zero_degree = 0
    for gi in range(36):
        n = 1 + gi % 6
        g = random_bipartite(n, (0.2, 0.4, 0.6, 0.8)[gi % 4], 100 + gi)
        nv = 2 * n
        adj = solver._adjacency(g)
        forests = forest_masks_oracle(g)
        for _ in range(200):
            s = rng.choice(forests) & rng.getrandbits(nv)
            r = rng.getrandbits(nv) & ~s
            act = s | r
            deg = [(row & act).bit_count() if act >> u & 1 else 0
                   for u, row in enumerate(adj)]
            bucket = solver._filed(adj, act, act)[1]
            top = max((deg[u] for u in range(nv) if r >> u & 1), default=0)
            edges = sum(deg) // 2
            zero_degree += bool(bucket[0] & r)
            best = max(f.bit_count() for f in forests
                       if f & s == s and not f & ~act)
            total = act.bit_count()
            for floor in range(total):
                states += 1
                if solver._edge_cut_refutes(bucket, r, top, total, floor,
                                            edges):
                    assert best <= floor, (g, s, r, floor)
                    refuted += 1
    assert states > 30_000 and refuted > 1_500 and zero_degree > 3_000


def test_edge_cut_buckets_match_the_sorting_oracle():
    # the bound read from the buckets top down must decide as the parent's
    # sort over the candidates' degrees (edge_cut_oracle) on random active
    # sets and candidates, with top anywhere from the largest candidate
    # degree to the last bucket; floors run over every k from 0 to the
    # active count, so k reaches above the number of candidates of
    # positive degree, and pools drawn without regard to degree hold
    # zero-degree candidates
    rng = random.Random(31)
    cases = Counter()
    for gi in range(120):
        n = 1 + gi % 12
        nv = 2 * n
        adj = solver._adjacency(
            random_bipartite(n, (0.1, 0.3, 0.5, 0.8)[gi % 4], 200 + gi))
        for _ in range(40):
            act = rng.getrandbits(nv) | rng.getrandbits(nv)
            r = act & rng.getrandbits(nv)
            deg = [(row & act).bit_count() if act >> u & 1 else 0
                   for u, row in enumerate(adj)]
            bucket = solver._filed(adj, act, act)[1]
            cand = [deg[u] for u in range(nv) if r >> u & 1]
            top = rng.randint(max(cand, default=0), len(bucket) - 1)
            # the bound reads p from bucket 0; the oracle gets a recount
            edges = sum(deg) // 2
            pos = nv - deg.count(0)
            total = act.bit_count()
            for floor in range(total):
                k = total - floor - 1
                got = solver._edge_cut_refutes(bucket, r, top, total, floor,
                                               edges)
                assert got == edge_cut_oracle(cand, total, floor, edges,
                                              pos), (gi, act, r, top, floor)
                cases["refuted"] += got
                cases["k = 0"] += not k
                cases["k above the candidates"] += k > len(cand)
                cases["zero-degree candidate"] += 0 in cand
    assert min(cases.values()) > 1_000, cases


def test_every_candidate_at_the_edge_cut_has_three_active_neighbours(
        monkeypatch):
    # the _Search docstring's claim: after propagation every candidate of a
    # node that reaches the bound has at least three active neighbours, so
    # the search hands the bound none of degree 0, 1 or 2. The active set
    # is the union of the buckets (the handed-degrees test holds them to
    # the graph), and each candidate's degree is recounted from the graph;
    # the root's bound in _reaches runs outside any node and is skipped
    branch = solver._Search._branch
    edge_cut = solver._edge_cut_refutes
    searches = []  # per open node, its search

    def tracking(self, *args):
        searches.append(self)
        try:
            return branch(self, *args)
        finally:
            searches.pop()

    calls = []

    def checking(bucket, r, top, total, floor, edges):
        if searches:
            adj = searches[-1].adj
            act = sum(bucket)
            assert act.bit_count() == total
            low = [u for u in range(len(adj))
                   if r >> u & 1 and (adj[u] & act).bit_count() < 3]
            assert not low, (r, low)
            calls.append(1)
        return edge_cut(bucket, r, top, total, floor, edges)

    monkeypatch.setattr(solver._Search, "_branch", tracking)
    monkeypatch.setattr(solver, "_edge_cut_refutes", checking)
    for gi in range(60):
        n = 6 + gi % 15
        max_forest(random_bipartite(n, (0.15, 0.25, 0.6)[gi % 3], 500 + gi))
    assert len(calls) > 4_000, len(calls)


def _root_count_refutes(g, t):
    n = g.n
    return solver._count_refutes(n, solver._Search(g).order, 0,
                                 (1 << 2 * n) - 1, t)


def test_count_refutes_n_plus_two_above_the_threshold():
    # the instance form of BOUNDS' g(n, k) >= n + 2: minimum degree n/2 + 1
    # leaves no room for a forest of n + 2 vertices
    for n in range(2, 65):
        assert _root_count_refutes(random_min_degree(n, (n + 3) // 2, n),
                                   n + 2), n
        assert _root_count_refutes(complete_balanced(n), n + 2), n


def test_count_never_refutes_a_forest_number_of_n_plus_two():
    graphs = [prop1_construction(n) for n in range(2, 65)]
    graphs += [thh1_l2(n, k) for n in range(4, 64, 2)
               for k in range(2, n // 2 + 1)]
    for g in graphs:
        assert not _root_count_refutes(g, g.n + 2), g
