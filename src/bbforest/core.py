"""Balanced bipartite graphs over per-vertex bitsets, plus the BBG text format.

A graph is its n x n biadjacency matrix: row i is vertex i of V1, column j
is vertex j of V2. A row is a bitmask over V2, written as n characters '0' or
'1' where character j is bit j (``_decode_row``, ``_encode_row``). ``adj2``,
the transpose, is read off the joined rows by ``_columns``, for both
``from_rows`` and ``parse_bbg``.

Vertices are 0-indexed within each part. Wherever a single ordering over all
2n vertices is needed (witness tie-breaks, enumeration order), part-one
vertices come first: vertex i of V1 has global id i, vertex j of V2 has
global id n + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MalformedInputError, ParameterError, PostconditionError

__all__ = [
    "BalancedBipartiteGraph",
    "VertexSubset",
    "from_rows",
    "min_degree",
    "induced_edge_count",
    "is_induced_forest",
    "parse_bbg",
    "emit_bbg",
]


def _bit_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


@dataclass(frozen=True)
class BalancedBipartiteGraph:
    """Immutable bipartite graph with parts V1 and V2 of n vertices each.

    ``adj1[i]`` is a bitmask over V2 columns giving the neighbours of vertex
    i of V1; ``adj2`` is the transpose, built by ``from_rows`` or ``parse_bbg``.
    Instances compare by value and are safe to share between threads.
    """

    n: int
    adj1: tuple[int, ...]
    adj2: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj1)

    def degree(self, side: int, index: int) -> int:
        """Degree of vertex ``index`` in part ``side`` (1 or 2), with
        0 <= index < n."""
        if side not in (1, 2) or not 0 <= index < self.n:
            raise ParameterError(
                f"no vertex {index} in part {side} of part size {self.n}")
        rows = self.adj1 if side == 1 else self.adj2
        return rows[index].bit_count()


@dataclass(frozen=True)
class VertexSubset:
    """A vertex selection (S within V1, S within V2) as a pair of bitmasks."""

    s1: int
    s2: int

    @property
    def size(self) -> int:
        return self.s1.bit_count() + self.s2.bit_count()

    def min_part_size(self) -> int:
        """The smaller of the two per-part selection sizes."""
        return min(self.s1.bit_count(), self.s2.bit_count())

    def indices(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _bit_indices(self.s1), _bit_indices(self.s2)

    @classmethod
    def from_indices(cls, v1: Iterable[int], v2: Iterable[int]) -> "VertexSubset":
        # a set sums each bit once, so a repeated index adds nothing
        v1, v2 = set(v1), set(v2)
        if min(v1 | v2, default=0) < 0:
            raise ParameterError(f"negative vertex index {min(v1 | v2)}")
        return cls(sum(1 << i for i in v1), sum(1 << j for j in v2))


_NOT_BITS = str.maketrans("", "", "01")  # rows are valid when this leaves ''


def _decode_row(row: str | int, n: int) -> int:
    """A '0'/'1' string or an int mask as a checked bitmask of width n."""
    if not isinstance(row, str):
        if row < 0 or row >> n:
            raise MalformedInputError(f"bitmask out of range for width {n}")
        return row
    if len(row) != n:
        raise MalformedInputError(f"expected {n} columns, got {len(row)}")
    # checked before int(), which also takes '_', signs, whitespace and
    # non-ASCII digits
    bad = row.translate(_NOT_BITS)
    if bad:
        raise MalformedInputError(f"invalid character {bad[0]!r}")
    return int(row[::-1], 2)


def _encode_row(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")[::-1]


def _columns(block: str, n: int) -> tuple[int, ...]:
    # row i, column j of n joined rows is block[i * n + j], so column j from
    # the last row up is every n-th character back from n * n - n + j
    return tuple([int(block[n * n - n + j::-n], 2) for j in range(n)])


def from_rows(n: int, rows: Sequence[int] | Sequence[str]) -> BalancedBipartiteGraph:
    """Build a graph from n adjacency rows over V2, as bitmasks or strings."""
    if n < 1:
        raise ParameterError(f"part size must be positive, got {n}")
    if len(rows) != n:
        raise MalformedInputError(f"expected {n} rows, got {len(rows)}")
    adj1 = []
    for i, row in enumerate(rows):
        try:
            adj1.append(_decode_row(row, n))
        except MalformedInputError as err:
            raise MalformedInputError(f"row {i}: {err}") from None
    block = "".join([_encode_row(row, n) for row in adj1])
    return BalancedBipartiteGraph(n, tuple(adj1), _columns(block, n))


def min_degree(g: BalancedBipartiteGraph) -> int:
    """Minimum vertex degree over both parts."""
    return min(min(row.bit_count() for row in g.adj1),
               min(row.bit_count() for row in g.adj2))


def _check_subset(g: BalancedBipartiteGraph, s: VertexSubset) -> None:
    if s.s1 < 0 or s.s2 < 0 or s.s1 >> g.n or s.s2 >> g.n:
        raise ParameterError(f"subset out of range for part size {g.n}")


def induced_edge_count(g: BalancedBipartiteGraph, s: VertexSubset) -> int:
    """Number of edges of the subgraph induced by ``s``."""
    _check_subset(g, s)
    return sum((g.adj1[i] & s.s2).bit_count() for i in _bit_indices(s.s1))


def _forest_masks(adj1: Sequence[int], n: int, s1: int, s2: int) -> bool:
    """Acyclicity test on the subgraph induced by the mask pair.

    Rejects early once the running edge count reaches the subset size (a
    forest on v vertices has at most v - 1 edges), then confirms with a
    union-find over the induced edges.
    """
    size = s1.bit_count() + s2.bit_count()
    if size == 0:
        return True
    edges = 0
    m = s1
    while m:
        b = m & -m
        m ^= b
        edges += (adj1[b.bit_length() - 1] & s2).bit_count()
        if edges >= size:
            return False
    if edges == 0:
        return True
    parent = list(range(2 * n))
    m = s1
    while m:
        b = m & -m
        m ^= b
        i = b.bit_length() - 1
        row = adj1[i] & s2
        while row:
            rb = row & -row
            row ^= rb
            x = i
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            y = n + rb.bit_length() - 1
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x == y:
                return False
            parent[x] = y
    return True


def is_induced_forest(g: BalancedBipartiteGraph, s: VertexSubset) -> bool:
    """True when the subgraph induced by ``s`` is acyclic."""
    _check_subset(g, s)
    return _forest_masks(g.adj1, g.n, s.s1, s.s2)


def parse_bbg(text: str) -> BalancedBipartiteGraph:
    """Parse the BBG v1 text format.

    Layout: header line ``BBG 1``, a decimal part size n, then n rows of n
    characters from {0, 1}. Lines end with LF and carry no extra
    whitespace. Errors name the offending 1-based line.
    """
    lines = text.split("\n")
    terminated = len(lines) > 1 and lines[-1] == ""
    if terminated:
        lines.pop()
    if not lines or lines[0] != "BBG 1":
        raise MalformedInputError("expected header 'BBG 1'", line=1)
    if not terminated:
        raise MalformedInputError("missing final newline", line=len(lines))
    if len(lines) < 2:
        raise MalformedInputError("missing part size", line=2)
    ns = lines[1]
    if not ns or any(c not in "0123456789" for c in ns):
        raise MalformedInputError(f"part size must be a decimal integer, got {ns!r}", line=2)
    n = int(ns)
    if str(n) != ns:
        raise MalformedInputError(f"part size has leading zeros: {ns!r}", line=2)
    if n < 1:
        raise MalformedInputError("part size must be positive", line=2)
    if len(lines) < n + 2:
        raise MalformedInputError(
            f"expected {n} rows, found {len(lines) - 2}", line=len(lines) + 1)
    if len(lines) > n + 2:
        raise MalformedInputError("unexpected trailing content", line=n + 3)
    rows = lines[2:]
    block = "".join(rows)
    if set(map(len, rows)) != {n} or block.translate(_NOT_BITS):
        for i, row in enumerate(rows):
            try:
                _decode_row(row, n)
            except MalformedInputError as err:
                raise MalformedInputError(str(err), line=3 + i) from None
        raise PostconditionError("the row block failed its check but every row passed")
    adj1 = tuple([int(row[::-1], 2) for row in rows])
    return BalancedBipartiteGraph(n, adj1, _columns(block, n))


def emit_bbg(g: BalancedBipartiteGraph) -> str:
    """Serialize to BBG v1 text; ``parse_bbg`` round-trips it bit-exactly."""
    out = ["BBG 1", str(g.n), *(_encode_row(row, g.n) for row in g.adj1)]
    return "\n".join(out) + "\n"
