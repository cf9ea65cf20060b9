"""Deterministic builders for the graph families the verification sweeps use.

Every generator is a pure function of its parameters: canonical index
choices are fixed (lowest indices win) and the random families consume a
seeded generator, so identical parameters always produce identical graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (BalancedBipartiteGraph, VertexSubset, from_rows,
                   is_induced_forest, min_degree)
from .errors import ParameterError, PostconditionError

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "build",
    "complete_balanced",
    "prop1_construction",
    "thm3_lambda2",
    "thm3_lambda_half",
    "thh1_l1",
    "thh1_l2",
    "random_min_degree",
    "random_th7",
]

def _check(ok: bool, message: str) -> None:
    # a construction that misses a property it promises is a bug, reported
    # even under ``python -O``
    if not ok:
        raise PostconditionError(message)


def _check_witness(g: BalancedBipartiteGraph, witness: VertexSubset,
                   split: int, name: str) -> None:
    half = g.n // 2
    _check(min_degree(g) >= half + 1, f"{name}: minimum degree below n/2 + 1")
    _check(witness.size == g.n + 1, f"{name}: witness size is not n + 1")
    _check(witness.min_part_size() == split,
           f"{name}: witness smaller part is not {split}")
    _check(is_induced_forest(g, witness), f"{name}: witness is not a forest")


def _check_x_degree(g: BalancedBipartiteGraph, k: int, name: str) -> None:
    # x is the added V1 vertex, the last one
    _check(min_degree(g) == k, f"{name}: minimum degree is not k")
    _check(g.adj1[g.n - 1].bit_count() == k, f"{name}: x does not have degree k")


def complete_balanced(n: int) -> BalancedBipartiteGraph:
    """The complete balanced bipartite graph on parts of size n."""
    if n < 1:
        raise ParameterError(f"part size must be positive, got {n}")
    full = (1 << n) - 1
    return from_rows(n, [full] * n)


def prop1_construction(n: int) -> BalancedBipartiteGraph:
    """Sharpness example: minimum degree ceil(n/2), forest number n + 2.

    Starts complete and removes the edges from vertex 0 of V1 to the first
    floor(n/2) columns and from vertex 1 of V1 to the last n - ceil(n/2)
    columns, leaving both special vertices with degree ceil(n/2) and every
    other vertex with degree at least n - 1.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    full = (1 << n) - 1
    rows = [full] * n
    lo = n // 2
    hi = (n + 1) // 2
    rows[0] = full ^ ((1 << lo) - 1)   # keeps columns lo .. n-1
    rows[1] = (1 << hi) - 1            # keeps columns 0 .. hi-1
    g = from_rows(n, rows)
    _check(min_degree(g) == (n + 1) // 2,
           f"prop1_construction({n}): minimum degree is not ceil(n/2)")
    _check(g.edge_count() == n * n - lo - (n - hi),
           f"prop1_construction({n}): wrong edge count")
    return g


def thm3_lambda2(n: int) -> tuple[BalancedBipartiteGraph, VertexSubset]:
    """Family whose canonical optimal witness splits 2 / (n - 1).

    Two hub vertices a1, a2 share exactly one of their n/2 neighbours among
    the n - 1 plain columns; a single column h is joined to both hubs and to
    the first n/2 - 1 filler vertices, and every filler vertex is joined to
    every plain column. Returns the graph and the witness (both hubs plus
    all plain columns). Requires even n >= 4.
    """
    if n < 4 or n % 2:
        raise ParameterError(f"need even n >= 4, got {n}")
    half = n // 2
    h_bit = 1 << (n - 1)
    b_full = (1 << (n - 1)) - 1
    rows = [0] * n
    rows[0] = ((1 << half) - 1) | h_bit                      # a1
    rows[1] = (b_full ^ ((1 << (half - 1)) - 1)) | h_bit     # a2
    for j in range(n - 2):                                   # fillers
        rows[2 + j] = b_full
    for j in range(half - 1):
        rows[2 + j] |= h_bit
    g = from_rows(n, rows)
    witness = VertexSubset(0b11, b_full)
    _check_witness(g, witness, 2, f"thm3_lambda2({n})")
    return g, witness


def thm3_lambda_half(n: int) -> tuple[BalancedBipartiteGraph, VertexSubset]:
    """Family whose canonical optimal witness splits n/2 / (n/2 + 1).

    The witness induces a path b0 a0 b1 a1 .. b_{n/2}; the n/2 off-path
    vertices f_j are joined to every path column, the n/2 - 1 off-path
    columns h_j to every path vertex a_i, and each h_j also to f_j.
    Returns the graph and the path witness. Requires even n >= 4.
    """
    if n < 4 or n % 2:
        raise ParameterError(f"need even n >= 4, got {n}")
    half = n // 2
    b_full = (1 << (half + 1)) - 1
    h_all = ((1 << n) - 1) ^ b_full
    rows = [0] * n
    for i in range(half):                       # path vertices a_i
        rows[i] = (1 << i) | (1 << (i + 1)) | h_all
    for j in range(half):                       # fillers f_j
        rows[half + j] = b_full
    for j in range(half - 1):
        rows[half + j] |= 1 << (half + 1 + j)
    g = from_rows(n, rows)
    witness = VertexSubset((1 << half) - 1, b_full)
    _check_witness(g, witness, half, f"thm3_lambda_half({n})")
    return g, witness


def thh1_l1(n: int, k: int) -> BalancedBipartiteGraph:
    """Minimum degree exactly k, forest number (part size) + 1.

    A complete balanced base on parts of size n (n odd) gains one vertex per
    side: x joins columns 0 .. k-2 and y, while y joins every base vertex of
    V1 and x. The new parts have size n + 1 and only x has degree k.
    Requires odd n >= max(k - 1, 1) and k >= 2.
    """
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"need odd n >= 1, got {n}")
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    if n < k - 1:
        raise ParameterError(f"need n >= k - 1, got n={n}, k={k}")
    y_bit = 1 << n
    base_full = (1 << n) - 1
    rows = [base_full | y_bit] * n
    rows.append(((1 << (k - 1)) - 1) | y_bit)   # x
    g = from_rows(n + 1, rows)
    _check_x_degree(g, k, f"thh1_l1({n}, {k})")
    return g


def thh1_l2(n: int, k: int) -> BalancedBipartiteGraph:
    """Minimum degree exactly k, forest number (part size) + 2.

    The base on parts of size n (n even) is complete except that vertex 0 of
    V1 misses the last n/2 - 1 columns. Vertex x joins the first k - 1 of
    those missing columns and y; vertex y joins the first k base vertices of
    V1 and x. Only x has degree k. Requires even n >= 4 and 2 <= k <= n/2.
    """
    if n < 4 or n % 2:
        raise ParameterError(f"need even n >= 4, got {n}")
    if k < 2 or k > n // 2:
        raise ParameterError(f"need 2 <= k <= n/2, got n={n}, k={k}")
    half = n // 2
    y_bit = 1 << n
    base_full = (1 << n) - 1
    rows = [base_full] * n
    rows[0] = (1 << (half + 1)) - 1             # misses columns half+1 .. n-1
    for i in range(k):
        rows[i] |= y_bit
    x_row = (((1 << (half + k)) - 1) ^ ((1 << (half + 1)) - 1)) | y_bit
    rows.append(x_row)
    g = from_rows(n + 1, rows)
    _check_x_degree(g, k, f"thh1_l2({n}, {k})")
    return g


def _shuffled(items: list[int], rng: random.Random) -> list[int]:
    # Fisher-Yates driven by randrange keeps the draw sequence explicit
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _random_rows_min_degree(n: int, delta_min: int, rng: random.Random) -> list[int]:
    p = max(0.5, (delta_min + 1) / n)
    rows = []
    for _ in range(n):
        mask = 0
        for j in range(n):
            if rng.random() < p:
                mask |= 1 << j
        rows.append(mask)
    # repair short rows, then short columns; edges only ever get added
    for i in range(n):
        short = delta_min - rows[i].bit_count()
        if short > 0:
            candidates = _shuffled([j for j in range(n) if not rows[i] >> j & 1], rng)
            for j in candidates[:short]:
                rows[i] |= 1 << j
    for j in range(n):
        col = sum(rows[i] >> j & 1 for i in range(n))
        short = delta_min - col
        if short > 0:
            candidates = _shuffled([i for i in range(n) if not rows[i] >> j & 1], rng)
            for i in candidates[:short]:
                rows[i] |= 1 << j
    return rows


def random_min_degree(n: int, delta_min: int, seed: int) -> BalancedBipartiteGraph:
    """Seeded random graph with every degree at least ``delta_min``.

    Edges are sampled independently with probability
    max(0.5, (delta_min + 1) / n), then deficient vertices are repaired by
    adding edges to non-neighbours in seeded-shuffled order. Identical
    (n, delta_min, seed) triples yield identical graphs.
    """
    if n < 1:
        raise ParameterError(f"part size must be positive, got {n}")
    if not 0 <= delta_min <= n:
        raise ParameterError(f"need 0 <= delta_min <= {n}, got {delta_min}")
    rng = random.Random(seed)
    g = from_rows(n, _random_rows_min_degree(n, delta_min, rng))
    _check(min_degree(g) >= delta_min,
           f"random_min_degree({n}, {delta_min}, {seed}): a degree below delta_min")
    return g


def random_th7(n: int, seed: int) -> BalancedBipartiteGraph:
    """Seeded random graph with minimum degree (n + 1)/2 and at most one
    vertex of that exact degree in each part (n odd).

    Builds on ``random_min_degree`` with the same seed, then lifts all but
    the lowest-indexed floor-degree vertex of each part by one extra edge
    to a seeded-shuffled non-neighbour.
    """
    if n < 3 or n % 2 == 0:
        raise ParameterError(f"need odd n >= 3, got {n}")
    floor = (n + 1) // 2
    rng = random.Random(seed)
    rows = _random_rows_min_degree(n, floor, rng)
    at_floor = [i for i in range(n) if rows[i].bit_count() == floor]
    for i in at_floor[1:]:
        candidates = _shuffled([j for j in range(n) if not rows[i] >> j & 1], rng)
        rows[i] |= 1 << candidates[0]
    col_deg = [sum(rows[i] >> j & 1 for i in range(n)) for j in range(n)]
    at_floor = [j for j in range(n) if col_deg[j] == floor]
    for j in at_floor[1:]:
        candidates = _shuffled([i for i in range(n) if not rows[i] >> j & 1], rng)
        rows[candidates[0]] |= 1 << j
    g = from_rows(n, rows)
    _check(min_degree(g) >= floor,
           f"random_th7({n}, {seed}): a degree below (n + 1)/2")
    _check(sum(1 for row in g.adj1 if row.bit_count() == floor) <= 1
           and sum(1 for row in g.adj2 if row.bit_count() == floor) <= 1,
           f"random_th7({n}, {seed}): two floor-degree vertices in one part")
    return g


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable description of a generator invocation."""

    family: str
    n: int
    k: int | None = None
    delta_min: int | None = None
    seed: int = 0


# family -> (builder, the GeneratorSpec fields it takes in argument order);
# families with a canonical witness build just the graph here
_FAMILIES = {
    "complete": (complete_balanced, ("n",)),
    "prop1": (prop1_construction, ("n",)),
    "thm3_lambda2": (lambda n: thm3_lambda2(n)[0], ("n",)),
    "thm3_lambda_half": (lambda n: thm3_lambda_half(n)[0], ("n",)),
    "thh1_l1": (thh1_l1, ("n", "k")),
    "thh1_l2": (thh1_l2, ("n", "k")),
    "random_min_degree": (random_min_degree, ("n", "delta_min", "seed")),
    "random_th7": (random_th7, ("n", "seed")),
}

FAMILIES = tuple(_FAMILIES)


def build(spec: GeneratorSpec) -> BalancedBipartiteGraph:
    """Materialize a spec; a field its family takes must not be None."""
    if spec.family not in _FAMILIES:
        raise ParameterError(
            f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    builder, fields = _FAMILIES[spec.family]
    for name in fields:
        if getattr(spec, name) is None:
            raise ParameterError(f"{spec.family} requires {name}")
    return builder(*(getattr(spec, name) for name in fields))
