import hashlib

import pytest

import bbforest.generators as generators
from bbforest import (FAMILIES, GeneratorSpec, ParameterError,
                      PostconditionError, build,
                      complete_balanced, emit_bbg, from_rows,
                      is_induced_forest, min_degree, prop1_construction,
                      random_min_degree, random_th7, thh1_l1, thh1_l2,
                      thm3_lambda2, thm3_lambda_half)


def test_complete_balanced():
    g = complete_balanced(3)
    assert g == from_rows(3, ["111", "111", "111"])
    assert g.edge_count() == 9
    with pytest.raises(ParameterError):
        complete_balanced(0)


@pytest.mark.parametrize("n", range(2, 11))
def test_prop1_degree_sits_just_below_threshold(n):
    g = prop1_construction(n)
    assert min_degree(g) == (n + 1) // 2
    # the forcing threshold is the next integer up
    assert min_degree(g) < n / 2 + 1


def test_prop1_rejects_n_below_two():
    with pytest.raises(ParameterError, match="need n >= 2, got 1"):
        prop1_construction(1)


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_thm3_lambda2_witness_shape(n):
    g, w = thm3_lambda2(n)
    assert min_degree(g) >= n // 2 + 1
    assert w.size == n + 1
    assert w.min_part_size() == 2
    assert is_induced_forest(g, w)


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_thm3_lambda_half_witness_shape(n):
    g, w = thm3_lambda_half(n)
    assert min_degree(g) >= n // 2 + 1
    assert w.size == n + 1
    assert w.min_part_size() == n // 2
    assert is_induced_forest(g, w)


def test_thm3_families_reject_odd_or_small_n():
    for fn in (thm3_lambda2, thm3_lambda_half):
        with pytest.raises(ParameterError):
            fn(5)
        with pytest.raises(ParameterError):
            fn(2)


@pytest.mark.parametrize("n,k", [(3, 2), (5, 2), (5, 3), (7, 3), (7, 4)])
def test_thh1_l1_min_degree_exact(n, k):
    g = thh1_l1(n, k)
    assert g.n == n + 1
    assert min_degree(g) == k


def test_thh1_l1_rejects_bad_params():
    with pytest.raises(ParameterError):
        thh1_l1(4, 2)          # even n
    with pytest.raises(ParameterError):
        thh1_l1(3, 1)          # k too small
    with pytest.raises(ParameterError):
        thh1_l1(3, 5)          # n < k - 1


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 3), (8, 4)])
def test_thh1_l2_min_degree_exact(n, k):
    g = thh1_l2(n, k)
    assert g.n == n + 1
    assert min_degree(g) == k


def test_thh1_l2_rejects_bad_params():
    with pytest.raises(ParameterError):
        thh1_l2(5, 2)          # odd n
    with pytest.raises(ParameterError):
        thh1_l2(6, 4)          # k > n/2
    with pytest.raises(ParameterError):
        thh1_l2(2, 2)


def test_random_min_degree_honors_floor():
    for n, d, seed in [(5, 3, 0), (8, 5, 1), (10, 6, 2), (6, 0, 3), (4, 4, 4)]:
        g = random_min_degree(n, d, seed)
        assert min_degree(g) >= d


def test_random_min_degree_deterministic():
    a = random_min_degree(9, 6, seed=7)
    b = random_min_degree(9, 6, seed=7)
    assert emit_bbg(a) == emit_bbg(b)
    c = random_min_degree(9, 6, seed=8)
    assert a != c


def test_random_min_degree_rejects_bad_floor():
    with pytest.raises(ParameterError):
        random_min_degree(4, 5, 0)
    with pytest.raises(ParameterError):
        random_min_degree(4, -1, 0)
    with pytest.raises(ParameterError, match="part size must be positive"):
        random_min_degree(0, 0, 0)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_random_th7_postconditions(n):
    floor = (n + 1) // 2
    for seed in range(5):
        g = random_th7(n, seed)
        assert min_degree(g) >= floor
        for rows in (g.adj1, g.adj2):
            low = [r for r in rows if r.bit_count() == floor]
            assert len(low) <= 1


def test_random_th7_deterministic_and_rejects_even():
    assert emit_bbg(random_th7(7, 3)) == emit_bbg(random_th7(7, 3))
    with pytest.raises(ParameterError):
        random_th7(6, 0)


def test_seeded_generators_output_pinned():
    # the BBG text of both seeded generators over a grid, hashed: a seed
    # must keep giving the same graph whatever the code draws its shuffles
    # with; the grid repairs short rows by 1 624 shuffles of two items or
    # more
    digest = hashlib.sha256()
    count = 0
    for n in (1, 2, 3, 4, 5, 8, 13, 21, 34, 64):
        deltas = {0, n // 2, n // 2 + 1, (n + 3) // 2, n - 1, n}
        for delta in sorted(d for d in deltas if d <= n):
            for seed in range(4):
                digest.update(emit_bbg(random_min_degree(n, delta,
                                                         seed)).encode())
                count += 1
    for n in (3, 5, 7, 9, 15, 33, 63):
        for seed in range(8):
            digest.update(emit_bbg(random_th7(n, seed)).encode())
            count += 1
    assert count == 236
    assert digest.hexdigest() == (
        "9aa8166956ab159c9d314211cefdbcedc8f901df12dbb565d51586fc49230b12")


def test_build_dispatch_round_trip():
    for family in FAMILIES:
        spec = GeneratorSpec(family=family, n=6, k=3, delta_min=3, seed=5)
        if family in ("thh1_l1", "random_th7"):
            spec = GeneratorSpec(family=family, n=7, k=3, delta_min=3, seed=5)
        g = build(spec)
        assert g.n >= 6


def test_build_requires_family_params():
    with pytest.raises(ParameterError):
        build(GeneratorSpec(family="thh1_l1", n=7))
    with pytest.raises(ParameterError):
        build(GeneratorSpec(family="random_min_degree", n=7))
    with pytest.raises(ParameterError):
        build(GeneratorSpec(family="no_such_family", n=7))


def test_build_matches_direct_calls():
    assert build(GeneratorSpec(family="prop1", n=8)) == prop1_construction(8)
    assert build(GeneratorSpec(family="thm3_lambda2", n=8)) == thm3_lambda2(8)[0]
    assert build(GeneratorSpec(family="thh1_l2", n=8, k=3)) == thh1_l2(8, 3)
    assert (build(GeneratorSpec(family="random_min_degree", n=8, delta_min=5, seed=2))
            == random_min_degree(8, 5, 2))


# a 6-cycle: every vertex has degree 2, random_th7's floor at n = 3
ALL_AT_FLOOR = from_rows(3, [0b011, 0b101, 0b110])

# family, call, patched generators global, stand-in, message; each row
# breaks one promise the family makes about its graph
PROMISES = [
    ("prop1", lambda: prop1_construction(4), "min_degree", lambda g: -1,
     r"prop1_construction\(4\): minimum degree is not ceil\(n/2\)"),
    ("thm3_lambda2", lambda: thm3_lambda2(4), "is_induced_forest",
     lambda g, s: False, r"thm3_lambda2\(4\): witness is not a forest"),
    ("thm3_lambda_half", lambda: thm3_lambda_half(6), "min_degree",
     lambda g: -1, r"thm3_lambda_half\(6\): minimum degree below n/2 \+ 1"),
    ("thh1_l1", lambda: thh1_l1(5, 2), "min_degree", lambda g: -1,
     r"thh1_l1\(5, 2\): minimum degree is not k"),
    ("thh1_l2", lambda: thh1_l2(6, 2), "min_degree", lambda g: -1,
     r"thh1_l2\(6, 2\): minimum degree is not k"),
    ("thh1_l2", lambda: thh1_l2(6, 2), "is_induced_forest",
     lambda g, s: False, r"thh1_l2\(6, 2\): vertex 0, x and V2 are not a forest"),
    ("random_min_degree", lambda: random_min_degree(4, 2, 0), "min_degree",
     lambda g: -1, r"random_min_degree\(4, 2, 0\): a degree below delta_min"),
    ("random_th7", lambda: random_th7(5, 1), "min_degree", lambda g: -1,
     r"random_th7\(5, 1\): a degree below \(n \+ 1\)/2"),
    ("random_th7", lambda: random_th7(3, 0), "from_rows",
     lambda n, rows: ALL_AT_FLOOR,
     r"random_th7\(3, 0\): two floor-degree vertices in one part"),
]


@pytest.mark.parametrize("family, call, attr, fake, message", PROMISES,
                         ids=[f"{c[0]}-{c[2]}" for c in PROMISES])
def test_postcondition_failure_raises(monkeypatch, family, call, attr, fake,
                                      message):
    monkeypatch.setattr(generators, attr, fake)
    with pytest.raises(PostconditionError, match=message):
        call()
