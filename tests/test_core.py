import pytest
from hypothesis import given
from hypothesis import strategies as st

import bbforest.core
from bbforest import (BalancedBipartiteGraph, MalformedInputError,
                      ParameterError, PostconditionError, VertexSubset,
                      emit_bbg, from_rows, induced_edge_count,
                      is_induced_forest, min_degree, parse_bbg)

from .helpers import bbg_oracle, forest_oracle, random_bipartite

# rows outside {0, 1} that int(row[::-1], 2) would still accept
INT_ACCEPTED_ROWS = ["1_1", "1+", "1-", " 1", "1\t", "\uff110"]
# part sizes past one 64-bit word, which only the solver caps
SIZES = st.integers(1, 64) | st.sampled_from([65, 100])
# characters an edit writes into emitted text: int() takes several of them
EDIT_CHARS = "01_+- \t\r\x00x2\uff11\u0661"


def _second_row_is(row: str) -> list[str]:
    # len(row) rows of ones with ``row`` in place of the second
    n = len(row)
    return ["1" * n, row] + ["1" * n] * (n - 2)


def test_from_rows_string_and_int_agree():
    a = from_rows(3, ["110", "011", "101"])
    b = from_rows(3, [0b011, 0b110, 0b101])
    assert a == b
    assert a.adj2 == (0b101, 0b011, 0b110)


def test_from_rows_builds_transpose():
    g = from_rows(2, ["10", "11"])
    # column 0 sees both rows, column 1 only row 1
    assert g.adj2 == (0b11, 0b10)


def test_from_rows_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        from_rows(0, [])
    with pytest.raises(MalformedInputError):
        from_rows(2, ["11"])
    with pytest.raises(MalformedInputError):
        from_rows(2, ["11", "1"])
    with pytest.raises(MalformedInputError):
        from_rows(2, ["11", "1x"])
    with pytest.raises(MalformedInputError):
        from_rows(2, [0b11, 1 << 2])
    for row in INT_ACCEPTED_ROWS:
        with pytest.raises(MalformedInputError, match="^row 1: invalid character"):
            from_rows(len(row), _second_row_is(row))


def test_degree_and_edge_count():
    g = from_rows(3, ["110", "011", "101"])
    assert g.edge_count() == 6
    assert [g.degree(1, i) for i in range(3)] == [2, 2, 2]
    assert [g.degree(2, j) for j in range(3)] == [2, 2, 2]
    assert min_degree(g) == 2
    # no part 0 or 3, and no wrapped or past-the-end index
    for side, index in ((0, 0), (3, 0), (1, -1), (2, 3)):
        with pytest.raises(ParameterError, match="^no vertex"):
            g.degree(side, index)


def test_vertex_subset_basics():
    s = VertexSubset(0b101, 0b010)
    assert s.size == 3
    assert s.min_part_size() == 1
    assert s.indices() == ((0, 2), (1,))
    assert VertexSubset.from_indices([0, 2], [1]) == s
    assert VertexSubset.from_indices([0, 2, 2], [1, 1]) == s
    # a negative index names no vertex, on either side
    for v1, v2 in (([-1], [0]), ([0], [3, -2])):
        with pytest.raises(ParameterError, match="^negative vertex index"):
            VertexSubset.from_indices(v1, v2)


def test_induced_edge_count_k22():
    g = from_rows(2, ["11", "11"])
    assert induced_edge_count(g, VertexSubset(0b11, 0b11)) == 4
    assert induced_edge_count(g, VertexSubset(0b11, 0b01)) == 2
    assert induced_edge_count(g, VertexSubset(0, 0b11)) == 0


def test_induced_edge_count_sharpness_graph():
    from bbforest import prop1_construction
    g = prop1_construction(2)
    assert induced_edge_count(g, VertexSubset(0b11, 0b11)) == 2


def test_is_induced_forest_small_cases():
    g = from_rows(2, ["11", "11"])
    assert is_induced_forest(g, VertexSubset(0, 0))
    assert is_induced_forest(g, VertexSubset(0b11, 0b01))
    assert not is_induced_forest(g, VertexSubset(0b11, 0b11))
    c6 = from_rows(3, ["110", "011", "101"])
    assert not is_induced_forest(c6, VertexSubset(0b111, 0b111))
    assert is_induced_forest(c6, VertexSubset(0b111, 0b011))


def test_subset_out_of_range_rejected():
    g = from_rows(2, ["11", "11"])
    with pytest.raises(ParameterError):
        induced_edge_count(g, VertexSubset(0b100, 0))
    with pytest.raises(ParameterError):
        is_induced_forest(g, VertexSubset(0, -1))


def test_emit_k22_exact_text():
    g = from_rows(2, ["11", "11"])
    assert emit_bbg(g) == "BBG 1\n2\n11\n11\n"


def test_parse_k22():
    g = parse_bbg("BBG 1\n2\n11\n11\n")
    assert g == from_rows(2, ["11", "11"])


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("BBG 2\n1\n1\n", 1),
    ("BBG 1\n", 2),
    ("BBG 1\nx\n", 2),
    ("BBG 1\n02\n11\n11\n", 2),
    ("BBG 1\n0\n", 2),
    ("BBG 1\n2\n11\n", 4),
    ("BBG 1\n2\n11\n1\n", 4),
    ("BBG 1\n2\n11\n12\n", 4),
    ("BBG 1\n2\n11\n11\n11\n", 5),
    ("BBG 1\n2\n11\n11", 4),
] + [("\n".join(["BBG 1", str(len(row)), *_second_row_is(row)]) + "\n", 4)
     for row in INT_ACCEPTED_ROWS])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MalformedInputError) as err:
        parse_bbg(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize("text,message", [
    # two bad rows: the first one is named, whichever check each fails
    ("BBG 1\n3\n111\n1x1\n11\n", "invalid character 'x'"),
    ("BBG 1\n3\n111\n11\n1x1\n", "expected 3 columns, got 2"),
    # a length error and a bad character on one row: the length is named
    ("BBG 1\n2\n11\n1x1\n", "expected 2 columns, got 3"),
    ("BBG 1\n2\n11\nx\n", "expected 2 columns, got 1"),
])
def test_parse_names_first_bad_row(text, message):
    with pytest.raises(MalformedInputError) as err:
        parse_bbg(text)
    assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)
    assert bbg_oracle(text) == (message, 4)


def test_parse_never_returns_a_rejected_block(monkeypatch):
    # a row check that lets the bad row through must not yield a graph
    monkeypatch.setattr(bbforest.core, "_decode_row", lambda row, n: 0)
    with pytest.raises(PostconditionError):
        parse_bbg("BBG 1\n2\n11\n1x\n")


@given(st.integers(1, 12), st.floats(0, 1), st.integers(0, 10 ** 6), st.data())
def test_parse_matches_reference_reader(n, p, seed, data):
    text = emit_bbg(random_bipartite(n, p, seed))
    edit = data.draw(st.sampled_from(["substitute", "delete", "newline", "drop line"]))
    if edit == "drop line":
        lines = text.splitlines(keepends=True)
        del lines[data.draw(st.integers(0, len(lines) - 1))]
        text = "".join(lines)
    else:
        k = data.draw(st.integers(0, len(text) - 1))
        if edit == "substitute":
            text = text[:k] + data.draw(st.sampled_from(EDIT_CHARS)) + text[k + 1:]
        elif edit == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + "\n" + text[k:]
    expected = bbg_oracle(text)
    if isinstance(expected, BalancedBipartiteGraph):
        assert parse_bbg(text) == expected
    else:
        message, line = expected
        with pytest.raises(MalformedInputError) as err:
            parse_bbg(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


@given(SIZES, st.floats(0, 1), st.integers(0, 10 ** 6))
def test_emit_parse_round_trip(n, p, seed):
    g = random_bipartite(n, p, seed)
    text = emit_bbg(g)
    assert parse_bbg(text) == g == bbg_oracle(text)


@given(SIZES, st.floats(0, 1), st.integers(0, 10 ** 6))
def test_transpose_consistent(n, p, seed):
    g = random_bipartite(n, p, seed)
    for i in range(n):
        for j in range(n):
            assert (g.adj1[i] >> j & 1) == (g.adj2[j] >> i & 1)


@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 10 ** 6))
def test_edge_count_matches_degree_sums(n, p, seed):
    g = random_bipartite(n, p, seed)
    assert g.edge_count() == sum(r.bit_count() for r in g.adj1)
    assert g.edge_count() == sum(c.bit_count() for c in g.adj2)


@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 10 ** 6),
       st.integers(0, (1 << 8) - 1), st.integers(0, (1 << 8) - 1))
def test_forest_check_against_oracle(n, p, seed, bits1, bits2):
    g = random_bipartite(n, p, seed)
    full = (1 << n) - 1
    s = VertexSubset(bits1 & full, bits2 & full)
    assert is_induced_forest(g, s) == forest_oracle(g, s)


@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 10 ** 6),
       st.integers(0, (1 << 8) - 1), st.integers(0, (1 << 8) - 1))
def test_forest_implies_edge_bound(n, p, seed, bits1, bits2):
    g = random_bipartite(n, p, seed)
    full = (1 << n) - 1
    s = VertexSubset(bits1 & full, bits2 & full)
    if s.size >= 1 and is_induced_forest(g, s):
        assert induced_edge_count(g, s) <= s.size - 1


@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 10 ** 6))
def test_one_part_plus_single_vertex_is_forest(n, p, seed):
    # such a subset induces a star, acyclic in any bipartite graph
    g = random_bipartite(n, p, seed)
    full = (1 << n) - 1
    for j in range(n):
        assert is_induced_forest(g, VertexSubset(full, 1 << j))
        assert is_induced_forest(g, VertexSubset(1 << j, full))


def test_graph_is_hashable_and_frozen():
    g = from_rows(2, ["11", "01"])
    assert g == from_rows(2, ["11", "01"])
    assert len({g, from_rows(2, ["11", "01"])}) == 1
    with pytest.raises(AttributeError):
        g.n = 3
