"""Exact search-node counts of a few fast solves.

The counts are deterministic and do not depend on the host, so a change to
them means the search itself changed: pruning, branching or pinning. Such
a change must be intended, and the new counts recorded here with it. Each
case also pins the witness and the number of feasibility queries the
pinning pass makes. No wall time is bounded.

The dense graphs (minimum degree (n + 3) // 2) close at the root on the
degree count, so they are pinned a second time with the count declining,
which keeps the branch and bound itself pinned on a dense graph.

The enumeration of every maximum forest is pinned apart from ``max_forest``:
its witness count, its feasibility queries and the nodes its own search
explores, the optimum's among them, on graphs of the T2 sweep at n = 9 and
on one sparse graph. The queries and nodes of the enumerations the T2
sweep itself runs at n = 9, seeds 1-40, are pinned as sums. ``max_forest``
runs the enumeration's walk and stops at its first leaf, so its queries
are the first ones the enumeration makes.

The local search (``_swap_forest``, ``_kick``, ``_descend``) only serves
the optimum: a query, which has a target size, never runs it. One search
from a larger forest only prunes more. But the swap forest also decides
whether the optimum climbs by first-forest queries, and in a climb the
kick's swaps shape every forest a query finds, and with it the next
query, so there the swap can cost nodes: gnp32p25's optimum takes 7 894
nodes with it and 6 047 with ``_swap_forest`` the identity. So the
climbing cases are compared as one search, with their climb switched off.
"""

import pytest

from bbforest import (enumerate_max_forests, max_forest, random_min_degree,
                      verify_structure)
from bbforest import solver, theorems

from .helpers import random_bipartite


def _all_but(n, *skip):
    return tuple(i for i in range(n) if i not in skip)


CASES = [
    # (graph, forest number, nodes explored, witness (V1, V2), pinning calls)
    (lambda: random_min_degree(32, 17, 1), 33, 1,
     (tuple(range(32)), (0,)), 0),
    (lambda: random_min_degree(48, 25, 2), 49, 1,
     (tuple(range(48)), (0,)), 0),
    (lambda: random_bipartite(12, 0.3, 7), 18, 23,
     ((1, 3, 4, 5, 7, 9), tuple(range(12))), 6),
    (lambda: random_bipartite(16, 0.25, 5), 24, 178,
     (_all_but(16, 1), (0, 1, 5, 6, 7, 9, 10, 12, 15)), 9),
    (lambda: random_min_degree(64, 33, 1), 65, 1,
     (tuple(range(64)), (0,)), 0),
    (lambda: random_bipartite(18, 0.2, 7), 27, 125,
     (tuple(range(18)), (0, 5, 7, 9, 12, 13, 14, 15, 17)), 10),
    (lambda: random_bipartite(18, 0.15, 7), 31, 35,
     (_all_but(18, 0, 7, 12, 16), _all_but(18, 16)), 5),
    (lambda: random_bipartite(20, 0.3, 7), 24, 1745,
     (tuple(range(20)), (7, 8, 13, 19)), 18),
    (lambda: random_bipartite(28, 0.2, 7), 36, 606,
     (tuple(range(28)), (2, 5, 6, 9, 15, 19, 23, 26)), 20),
    (lambda: random_bipartite(28, 0.15, 7), 39, 2446,
     (tuple(range(28)), (2, 4, 5, 7, 9, 10, 15, 16, 17, 23, 26)), 19),
    (lambda: random_bipartite(32, 0.2, 7), 40, 2018,
     (_all_but(32, 28), (7, 9, 10, 15, 17, 21, 22, 26, 30)), 23),
    (lambda: random_bipartite(32, 0.15, 7), 43, 8478,
     (tuple(range(32)), (2, 5, 7, 8, 13, 15, 17, 21, 23, 26, 30)), 24),
    # the root bound lies 8 and 10 above the swap forest, so the optimum
    # climbs by stopped queries: 9 345 and 74 713 nodes without the rule
    (lambda: random_bipartite(32, 0.25, 7), 37, 7968,
     (tuple(range(32)), (9, 10, 17, 22, 26)), 22),
    (lambda: random_bipartite(36, 0.2, 7), 43, 13700,
     (tuple(range(36)), (0, 2, 17, 18, 25, 27, 32)), 27),
    # the solve-sparse corpus graph whose optimum climbs: its first query
    # finds 20 vertices, the kick lifts them to f = 22, so the next query
    # is the proof; 505 nodes without the kick
    (lambda: random_bipartite(18, 0.3, 183007), 22, 122,
     (tuple(range(18)), (0, 1, 6, 11)), 8),
    # denser graphs whose swap forest, 13 and 15 vertices, lies at or below
    # the floor n + 1, and whose optimum climbs from there: on the first
    # the climb's first query is refuted, so no forest lies above n + 1
    (lambda: random_bipartite(18, 0.6, 0), 19, 465,
     (tuple(range(18)), (0,)), 0),
    (lambda: random_bipartite(16, 0.5, 2), 18, 201,
     (tuple(range(16)), (1, 14)), 13),
]
CASE_IDS = ["rmd32", "rmd48", "gnp12", "gnp16", "rmd64", "gnp18p20",
            "gnp18p15", "gnp20p30", "gnp28p20", "gnp28p15", "gnp32p20",
            "gnp32p15", "gnp32p25", "gnp36p20", "gnp18p30", "gnp18p60",
            "gnp16p50"]


# the rmd cases above with the root's degree count declining: the search runs
DENSE_SEARCH_CASES = [
    (lambda: random_min_degree(32, 17, 1), 33, 113,
     (tuple(range(32)), (0,)), 0),
    (lambda: random_min_degree(48, 25, 2), 49, 489,
     (tuple(range(48)), (0,)), 0),
    (lambda: random_min_degree(64, 33, 1), 65, 383,
     (tuple(range(64)), (0,)), 0),
]


# (graph, forest number, witnesses, feasibility queries, search nodes) of
# listing every maximum forest
ENUMERATION_CASES = [
    (lambda: random_min_degree(9, 6, 1), 10, 18, 59, 23),
    (lambda: random_min_degree(9, 6, 2), 10, 18, 59, 13),
    (lambda: random_min_degree(9, 6, 3), 10, 18, 59, 27),
    (lambda: random_bipartite(9, 0.3, 4), 14, 27, 139, 137),
]
ENUMERATION_IDS = ["rmd9s1", "rmd9s2", "rmd9s3", "gnp9p30"]


@pytest.mark.parametrize("make, f, nodes, witness, pin_calls", CASES,
                         ids=CASE_IDS)
def test_node_count_pinned(make, f, nodes, witness, pin_calls, monkeypatch):
    _check_pinned(make, f, nodes, witness, pin_calls, monkeypatch)


@pytest.mark.parametrize("make, f, nodes, witness, pin_calls",
                         DENSE_SEARCH_CASES, ids=["rmd32", "rmd48", "rmd64"])
def test_dense_search_node_count_pinned(make, f, nodes, witness, pin_calls,
                                        monkeypatch):
    monkeypatch.setattr(solver, "_count_refutes", lambda *args: False)
    _check_pinned(make, f, nodes, witness, pin_calls, monkeypatch)


def _check_pinned(make, f, nodes, witness, pin_calls, monkeypatch):
    res, calls, _ = counted_queries(monkeypatch, lambda: max_forest(make()))
    assert (res.forest_number, res.nodes_explored) == (f, nodes)
    assert res.witness.indices() == witness
    assert len(calls) == pin_calls


def counted_queries(monkeypatch, run):
    """Call ``run()`` with every feasibility query recorded; returns its
    result, the arguments of each query and the one search that answered
    them all (None when there was no query)."""
    calls = []
    searches = set()
    feasible_with = solver._Search.feasible_with

    def counted(self, *query):
        calls.append(query)
        searches.add(self)
        return feasible_with(self, *query)

    with monkeypatch.context() as patched:
        patched.setattr(solver._Search, "feasible_with", counted)
        result = run()
    assert len(searches) <= 1
    return result, calls, next(iter(searches), None)


def enumerate_counted(g, monkeypatch):
    """List every maximum forest of ``g``; returns the witnesses, the
    arguments of each feasibility query and the nodes the enumeration's
    one search explored."""
    witnesses, calls, search = counted_queries(
        monkeypatch, lambda: list(enumerate_max_forests(g)))
    return witnesses, calls, search.nodes


@pytest.mark.parametrize("make, f, witnesses, queries, nodes",
                         ENUMERATION_CASES, ids=ENUMERATION_IDS)
def test_enumeration_cost_pinned(make, f, witnesses, queries, nodes,
                                 monkeypatch):
    g = make()
    assert max_forest(g).forest_number == f
    listed, calls, explored = enumerate_counted(g, monkeypatch)
    assert (len(listed), len(calls), explored) == (witnesses, queries, nodes)
    # no query is hopeless: a branch whose forced-in set and free vertices
    # together fall short of the target cannot hold it, so the walk must
    # not queue it
    for inc, out, target in calls:
        assert 2 * g.n - out.bit_count() >= target, (inc, out)


def test_structure_sweep_enumeration_cost_pinned(monkeypatch):
    # the enumerations the T2 sweep at n = 9 runs on its 40 instances,
    # seeds 1-40, as the sweep calls them
    cost = []
    listing = theorems.enumerate_max_forests

    def counted(g):
        listed, calls, search = counted_queries(
            monkeypatch, lambda: list(listing(g)))
        cost.append((len(calls), search.nodes))
        return iter(listed)

    monkeypatch.setattr(theorems, "enumerate_max_forests", counted)
    report = verify_structure(9, samples=40, seed=1, check="T2")
    assert report.instances_checked == len(cost) == 40
    assert tuple(map(sum, zip(*cost))) == (2360, 745)


# the CASES above whose enumeration is cheap
FIRST_LEAF_IDS = ["gnp12", "gnp16", "gnp18p20", "gnp18p15", "gnp20p30"]


@pytest.mark.parametrize("make", [CASES[CASE_IDS.index(i)][0]
                                  for i in FIRST_LEAF_IDS], ids=FIRST_LEAF_IDS)
def test_witness_is_the_walks_first_leaf(make, monkeypatch):
    # max_forest's queries open the enumeration's, and its witness is the
    # first one listed
    g = make()
    res, calls, _ = counted_queries(monkeypatch, lambda: max_forest(g))
    listed, listing_calls, _ = enumerate_counted(g, monkeypatch)
    assert calls and listing_calls[:len(calls)] == calls
    assert listed[0] == res.witness


# the cases whose optimum climbs, compared as one search (module docstring)
CLIMBING_IDS = {"gnp32p20", "gnp32p15", "gnp32p25", "gnp36p20", "gnp18p30",
                "gnp18p60", "gnp16p50"}


@pytest.mark.parametrize("make, case_id",
                         [(case[0], i) for case, i in zip(CASES, CASE_IDS)],
                         ids=CASE_IDS)
def test_swap_never_adds_optimum_nodes(make, case_id, monkeypatch):
    g = make()
    if case_id in CLIMBING_IDS:
        monkeypatch.setattr(solver, "_UPWARD_GAP", 2 * g.n + 1)

    def optimum_nodes():
        search = solver._Search(g)
        solver._walk(search)
        return search.nodes

    swapped = optimum_nodes()
    monkeypatch.setattr(solver, "_swap_forest", lambda adj, s: s)
    assert swapped <= optimum_nodes()


def test_queries_never_run_the_local_search(monkeypatch):
    # the optimum runs the local search; a query must not, so each helper
    # fails while a query is on the stack
    querying = []
    ran = set()
    feasible_with = solver._Search.feasible_with

    def query(self, *args):
        querying.append(args)
        try:
            return feasible_with(self, *args)
        finally:
            querying.pop()

    def outside_queries(fn):
        def run(*args):
            if querying:
                raise AssertionError(f"query {querying[-1]} ran {fn.__name__}")
            ran.add(fn.__name__)
            return fn(*args)
        return run

    monkeypatch.setattr(solver._Search, "feasible_with", query)
    for helper in (solver._swap_forest, solver._kick, solver._descend):
        monkeypatch.setattr(solver, helper.__name__, outside_queries(helper))
    for make, f, witnesses, queries, nodes in ENUMERATION_CASES:
        listed, calls, explored = enumerate_counted(make(), monkeypatch)
        assert (len(listed), len(calls), explored) == (witnesses, queries,
                                                        nodes)
    # gnp9p30's optimum lies above n + 1, so the swap and the descent ran;
    # no graph here climbs, so the kick did not
    assert ran == {"_swap_forest", "_descend"}
    report = verify_structure(9, samples=3, seed=1, check="T2")
    assert report.instances_checked == 3 and not report.counterexamples
