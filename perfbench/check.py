"""Output checks that share no code with the package under test.

The instance is re-read from the BBG text the CLI was given, with a parser
of its own, and a witness is checked on explicit adjacency lists: it is a
forest exactly when edges == vertices - components. Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import os


def parse_bbg(text: str) -> tuple[int, list[str]]:
    """Part size and the n rows of a BBG v1 text, each a string of 0/1."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != "BBG 1" or lines[-1] != "":
        raise ValueError("not a BBG v1 text")
    n = int(lines[1])
    rows = lines[2:-1]
    if len(rows) != n or any(len(r) != n or set(r) - {"0", "1"} for r in rows):
        raise ValueError("BBG rows do not match the part size")
    return n, rows


def is_forest(rows: list[str], v1: list[int], v2: list[int]) -> bool:
    """True when the subgraph induced by V1 ids ``v1`` and V2 ids ``v2``
    is acyclic."""
    nodes = [("a", i) for i in v1] + [("b", j) for j in v2]
    index = {v: k for k, v in enumerate(nodes)}
    adjacency: list[list[int]] = [[] for _ in nodes]
    edges = 0
    for i in v1:
        for j in v2:
            if rows[i][j] == "1":
                a, b = index[("a", i)], index[("b", j)]
                adjacency[a].append(b)
                adjacency[b].append(a)
                edges += 1
    seen = [False] * len(nodes)
    components = 0
    for start in range(len(nodes)):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return edges == len(nodes) - components


def _ids_ok(ids, n: int) -> bool:
    return (isinstance(ids, list) and all(type(v) is int for v in ids)
            and all(0 <= v < n for v in ids) and ids == sorted(set(ids)))


def check_solve(stdin: str, code: int, out: str, *, expect_f: int | None = None,
                ref_witness: list | None = None) -> list[str]:
    """Problems with one ``solve --format json`` call on BBG text ``stdin``.

    ``expect_f`` is a forest number fixed by a reference or a claim;
    ``ref_witness`` is the reference [v1, v2] witness, which is unique
    (the lexicographically smallest of maximum size).
    """
    if code != 0:
        return [f"exit code {code}"]
    n, rows = parse_bbg(stdin)
    try:
        res = json.loads(out)
        f = res["forest_number"]
        v1, v2 = res["witness"]["v1"], res["witness"]["v2"]
        nodes = res["nodes_explored"]
        got_n, dec = res["n"], res["decycling_number"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    if got_n != n:
        problems.append(f"n = {got_n}, instance has {n}")
    if type(f) is not int or not n + 1 <= f <= 2 * n:
        return problems + [f"forest number {f!r} outside [n + 1, 2n]"]
    if dec != 2 * n - f:
        problems.append(f"decycling number {dec} != 2n - f = {2 * n - f}")
    if type(nodes) is not int or nodes < 1:
        problems.append(f"nodes_explored {nodes!r} is not a positive count")
    if not (_ids_ok(v1, n) and _ids_ok(v2, n)):
        return problems + ["witness ids out of range, repeated or unsorted"]
    if len(v1) + len(v2) != f:
        problems.append(f"witness size {len(v1) + len(v2)} != f = {f}")
    if not is_forest(rows, v1, v2):
        problems.append("witness induces a cycle")
    if expect_f is not None and f != expect_f:
        problems.append(f"forest number {f}, expected {expect_f}")
    if ref_witness is not None and [v1, v2] != ref_witness:
        problems.append("witness differs from the reference witness")
    return problems


def check_sweep(verify_seed: int, n: int, code: int, out: str, *,
                ref: list | None = None) -> list[str]:
    """Problems with one ``verify --theorem T2 --samples 1`` call.

    A pass verdict also certifies f = n + 1 (claim T1): the sweep records a
    counterexample for any other forest number. ``ref`` is the reference
    [verdict, witnesses_enumerated] pair.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        res = json.loads(out)
        params = res["params"]
        verdict, count = res["verdict"], params["witnesses_enumerated"]
        tid, checked = res["theorem_id"], res["instances_checked"]
        cex = res["counterexamples"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    if (tid, checked, params.get("n"), params.get("seed")) != ("T2", 1, n, verify_seed):
        problems.append("report describes another sweep")
    if verdict != "pass" or cex:
        problems.append(f"verdict {verdict!r} with {len(cex)} counterexamples")
    if type(count) is not int or count < 1:
        problems.append(f"witnesses_enumerated {count!r} is not a positive count")
    if ref is not None and [verdict, count] != ref:
        problems.append(f"[verdict, witnesses] = {[verdict, count]}, reference {ref}")
    return problems


class Reference:
    """Reference answers stored with the benchmark (``reference.json``).

    The solve corpus is the same at every seed, so its forest numbers and
    witnesses are stored per base graph; sweep answers are stored per seed.
    """

    PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")

    def __init__(self, data: dict):
        self.data = data

    @classmethod
    def load(cls, path: str = PATH) -> "Reference":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def solve(self, workload: str, base: int) -> tuple[int | None, list | None]:
        """Forest number and [v1 ids, v2 ids] witness of a base graph; the
        witness is stored as a pair of hex bitmasks."""
        answers = self.data.get(workload)
        if not answers:
            return None, None
        f, masks = answers[base]
        return f, [[i for i in range(m.bit_length()) if m >> i & 1]
                   for m in (int(h, 16) for h in masks)]

    def sweep(self, seed: int, k: int) -> list | None:
        rs = self.data.get("sweep-structure", {}).get(str(seed))
        return rs[k] if rs else None
