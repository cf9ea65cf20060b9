"""Print the node table of ROADMAP.md for the hard rows and two graph sets.

A row is ``max_forest(random_bipartite(n, p, 7))`` (``tests.helpers``). The
corpus is the 42 graphs of the benchmark's ``solve-sparse`` workload; the
grid is ``random_bipartite(n, p, seed)`` for n = 22, 24, 26 and 28,
p = 0.15, 0.2, 0.25 and 0.3 and seeds 1-8, 128 graphs, the second set the
climb's gap (``solver._UPWARD_GAP``) is chosen on. Per row the table gives:

- f and the sizes of the root's greedy forest and its (1, 2)-swap forest;
- the root bound: the largest t that neither the root's degree count nor
  its edge cut over the full degrees refutes;
- optimum: the nodes ``max_forest`` spends finding f, before the lex walk;
- proof only: the nodes of one first-forest query for f + 1 vertices, which
  refutes it;
- pinning: the nodes from f to ``max_forest``'s witness; and the whole
  solve's nodes.

A set's row sums its graphs' node columns. Node counts are exact and do
not depend on the host; no wall time is printed. Run from the repository
root::

    python tools/rows.py                 # every row: the n = 40 rows and
                                         # the grid take seconds each
    python tools/rows.py n32p25 corpus   # only the rows named
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bbforest import from_rows, solver  # noqa: E402
from perfbench.workloads import (FULL, random_bipartite_rows,  # noqa: E402
                                 sparse_bases)
from tests.helpers import random_bipartite  # noqa: E402

ROWS = {f"n{n}p{round(p * 100)}": (n, p)
        for n, p in ((32, 0.15), (32, 0.2), (32, 0.25), (36, 0.2),
                     (40, 0.2), (40, 0.15))}
SETS = {
    "corpus": lambda: [from_rows(n, random_bipartite_rows(n, p, seed))
                       for n, p, seed in sparse_bases(FULL)],
    "grid": lambda: [random_bipartite(n, p, seed)
                     for n in (22, 24, 26, 28) for p in (0.15, 0.2, 0.25, 0.3)
                     for seed in range(1, 9)],
}
HEADER = ("| instance | f | greedy / swap | root bound | optimum | proof only "
          "| pinning | nodes, all |\n| --- | --- | --- | --- | --- | --- | --- "
          "| --- |")


def measure(g) -> dict[str, int]:
    """One graph's columns of the table."""
    n = g.n
    search = solver._Search(g)
    greedy = solver._grown(search.adj, 0)
    swap = solver._swap_forest(search.adj, greedy)
    bound = next(t for t in range(2 * n, 0, -1)
                 if search._reaches(t))
    f, walk = solver._walk(search)
    optimum = search.nodes
    next(walk)
    proof = solver._Search(g)
    proof.largest(0, 0, f, True)
    return {"f": f, "greedy": greedy.bit_count(), "swap": swap.bit_count(),
            "bound": bound, "optimum": optimum, "proof": proof.nodes,
            "pinning": search.nodes - optimum, "all": search.nodes}


def _line(name: str, row: dict[str, int] | None, nodes: list[int]) -> str:
    # ROADMAP.md's style: thousands split by a space
    cells = ["–"] * 3 if row is None else [
        str(row["f"]), f"{row['greedy']} / {row['swap']}", str(row["bound"])]
    counts = [f"{x:,}".replace(",", " ") for x in nodes]
    return "| " + " | ".join([name, *cells, *counts]) + " |"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    every = [*ROWS, *SETS]
    parser.add_argument("rows", nargs="*", metavar="ROW",
                        help=f"rows to run, of {', '.join(every)} "
                             "(default: all)")
    names = parser.parse_args(argv).rows or every
    unknown = sorted(set(names) - set(every))
    if unknown:
        parser.error(f"unknown rows {', '.join(unknown)}")
    print(HEADER)
    columns = ("optimum", "proof", "pinning", "all")
    for name in names:
        if name in SETS:
            rows = [measure(g) for g in SETS[name]()]
            print(_line(f"{name}, {len(rows)} graphs", None,
                        [sum(r[c] for r in rows) for c in columns]),
                  flush=True)
        else:
            n, p = ROWS[name]
            row = measure(random_bipartite(n, p, 7))
            print(_line(f"p = {p}, n = {n}", row, [row[c] for c in columns]),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
