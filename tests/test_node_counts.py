"""Exact search-node counts of a few fast solves.

The counts are deterministic and do not depend on the host, so a change to
them means the search itself changed: pruning, branching or pinning. Such
a change must be intended, and the new counts recorded here with it. No
wall time is bounded.
"""

import pytest

from bbforest import max_forest, random_min_degree

from .helpers import random_bipartite

CASES = [
    # (graph, forest number, nodes explored)
    (lambda: random_min_degree(32, 17, 1), 33, 419),
    (lambda: random_min_degree(48, 25, 2), 49, 1019),
    (lambda: random_bipartite(12, 0.3, 7), 18, 509),
    (lambda: random_bipartite(16, 0.25, 5), 24, 3597),
]


@pytest.mark.parametrize("make, f, nodes", CASES,
                         ids=["rmd32", "rmd48", "gnp12", "gnp16"])
def test_node_count_pinned(make, f, nodes):
    res = max_forest(make())
    assert (res.forest_number, res.nodes_explored) == (f, nodes)
