from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bbforest.theorems as theorems
from bbforest import (ParameterError, SolveResult, VerificationReport,
                      VertexSubset, bound_g, bound_h, bound_t8, check_bounds,
                      complete_balanced, max_forest, merge_reports, parse_bbg,
                      profile_structure, prop1_construction, thm3_lambda2,
                      thm3_lambda_half, verify_constructions,
                      verify_structure, verify_t1_exhaustive,
                      verify_t1_random, verify_t8)


def test_bound_values_frozen():
    assert bound_g(6, 2) == 8
    assert bound_g(6, 4) == 8
    assert bound_g(6, 3) == Fraction(9)
    assert bound_h(8, 3) == 9
    assert bound_h(7, 3) == Fraction(15, 2)
    assert bound_h(5, 2) == 5
    assert bound_t8(5, 2) == 7
    assert bound_t8(5, 3) == 8
    assert isinstance(bound_g(7, 2), Fraction)


@given(st.integers(2, 200), st.integers(2, 200))
def test_bounds_match_their_scaled_integer_forms(n, k):
    assert 2 * bound_g(n, k) == k * (n + 6 - 2 * k)
    assert 2 * bound_h(n, k) == k * (n + 4 - 2 * k)
    if n % 2 == 1:
        m = (n + 1) // 2
        assert bound_t8(n, k) == -k * k + (m + 3) * k - 1


def test_check_bounds_passes_with_known_near_miss():
    rep = check_bounds(50)
    assert rep.verdict == "pass"
    assert rep.counterexamples == []
    assert rep.params["fractional_near_misses"] == [["h", 7, 3, "15/2"]]
    # the k = 2 case of the second bound sits below threshold for every n
    assert rep.params["h_k2_below_threshold"]["count"] == 46
    assert rep.params["h_k2_below_threshold"]["sample"][0] == [5, 2, "5"]


def test_check_bounds_rejects_tiny_range():
    with pytest.raises(ParameterError):
        check_bounds(1)


def test_report_json_key_order():
    rep = VerificationReport("T1", {"n": 2}, 1, [], 12.3456)
    d = rep.to_dict()
    assert list(d) == ["theorem_id", "params", "instances_checked",
                      "counterexamples", "elapsed_ms", "verdict"]
    assert d["elapsed_ms"] == 12.346
    d2 = rep.to_dict(include_timing=False)
    assert list(d2) == ["theorem_id", "params", "instances_checked",
                       "counterexamples", "verdict"]
    assert d["verdict"] == "pass"


def test_report_verdict_flips_on_counterexample():
    rep = VerificationReport("T1", {}, 1, [{"bbg": None, "detail": "x"}])
    assert rep.verdict == "fail"
    assert "fail" in rep.render_text()


def test_merge_reports():
    a = VerificationReport("T1", {"n": 2}, 1, [], 1.0)
    b = VerificationReport("T1", {"n": 3}, 4, [{"bbg": None, "detail": "y"}], 2.0)
    m = merge_reports([a, b])
    assert m.theorem_id == "T1"
    assert m.instances_checked == 5
    assert m.counterexamples == [{"bbg": None, "detail": "y"}]
    assert m.params == {"runs": [{"n": 2}, {"n": 3}]}
    with pytest.raises(ParameterError):
        merge_reports([])
    with pytest.raises(ParameterError):
        merge_reports([a, VerificationReport("P1", {}, 1, [])])


@pytest.mark.parametrize("n,qualifying", [(2, 1), (3, 1), (4, 209)])
def test_t1_exhaustive_counts(n, qualifying):
    rep = verify_t1_exhaustive(n)
    assert rep.verdict == "pass"
    assert rep.instances_checked == qualifying
    assert rep.params["matrices_scanned"] == 2 ** (n * n)


def test_t1_exhaustive_n4_count_independently():
    # recount the qualifying matrices by scanning all 2^16 of them
    count = 0
    for r0 in range(16):
        for r1 in range(16):
            for r2 in range(16):
                for r3 in range(16):
                    rows = (r0, r1, r2, r3)
                    if any(r.bit_count() < 3 for r in rows):
                        continue
                    if all(sum(r >> j & 1 for r in rows) >= 3
                           for j in range(4)):
                        count += 1
    assert count == 209


def test_t1_exhaustive_gates_n5():
    with pytest.raises(ParameterError):
        verify_t1_exhaustive(5)
    with pytest.raises(ParameterError):
        verify_t1_exhaustive(6, allow_n5=True)


def test_t1_random_pass():
    rep = verify_t1_random(6, samples=10, seed=3)
    assert rep.verdict == "pass"
    assert rep.instances_checked == 10
    assert rep.params["min_degree_threshold"] == 4


def test_t1_random_odd_n_threshold_rounds_up():
    rep = verify_t1_random(9, samples=3, seed=1)
    assert rep.verdict == "pass"
    assert rep.params["min_degree_threshold"] == 6


def test_t1_random_rejects_bad_params():
    with pytest.raises(ParameterError):
        verify_t1_random(0)
    with pytest.raises(ParameterError):
        verify_t1_random(6, samples=0)


def test_counterexample_embeds_replayable_instance(monkeypatch):
    # force a violation by feeding the sweep a graph below the claimed
    # degree threshold, then replay the embedded instance from the report
    bad = prop1_construction(6)
    monkeypatch.setattr(theorems, "random_min_degree",
                        lambda n, d, seed: bad)
    rep = verify_t1_random(6, samples=1, seed=0)
    assert rep.verdict == "fail"
    cex = rep.counterexamples[-1]
    replay = parse_bbg(cex["bbg"])
    assert replay == bad
    assert max_forest(replay).forest_number == 8 != 7
    assert "witness" in cex
    assert sorted(cex["witness"]) == ["v1", "v2"]


@pytest.mark.parametrize("check,n", [("T2", 4), ("T2", 5), ("T4", 5), ("C1", 5)])
def test_structure_sweeps_pass(check, n):
    rep = verify_structure(n, samples=6, seed=2, check=check)
    assert rep.verdict == "pass"
    assert rep.instances_checked == 6
    assert rep.params["witnesses_enumerated"] > 0


def test_structure_rejects_bad_params():
    with pytest.raises(ParameterError):
        verify_structure(6, check="C1")      # even n
    with pytest.raises(ParameterError):
        verify_structure(13, check="T2")     # beyond enumeration range
    with pytest.raises(ParameterError):
        verify_structure(6, check="T9")
    with pytest.raises(ParameterError):
        verify_structure(6, samples=0)


@pytest.mark.parametrize("tid", ["P1", "T6λ1", "T6λ2", "T6λhalf", "T7l1", "T7l2"])
def test_construction_sweeps_pass(tid):
    rep = verify_constructions(tid)
    assert rep.theorem_id == tid
    assert rep.verdict == "pass"
    assert rep.instances_checked > 0


def test_construction_sweep_custom_ranges():
    rep = verify_constructions("P1", ns=[4, 5])
    assert rep.instances_checked == 2
    rep = verify_constructions("T7l2", pairs=[(6, 2)])
    assert rep.instances_checked == 1
    with pytest.raises(ParameterError):
        verify_constructions("T1")


def test_t8_sweep():
    rep = verify_t8(n_values=(5, 7), samples=4, seed=9)
    assert rep.verdict == "pass"
    assert rep.instances_checked == 8
    with pytest.raises(ParameterError):
        verify_t8(n_values=(6,))
    with pytest.raises(ParameterError):
        verify_t8(samples=0)


def test_profile_structure_exhaustive():
    g, _ = thm3_lambda2(6)
    prof = profile_structure(g)
    assert prof.exhaustive
    assert prof.forest_number == 7
    assert 2 in prof.lambdas
    assert set(prof.witness_per_lambda) == set(prof.lambdas)
    # the smaller part of an (n+1)-subset cannot exceed (n+1)//2
    assert all(1 <= lam <= (g.n + 1) // 2 for lam in prof.lambdas)
    d = prof.to_dict()
    assert d["lambdas"] == sorted(prof.lambdas)
    assert d["exhaustive"] is True


def test_profile_structure_lambda_half_family():
    from bbforest import thm3_lambda_half
    g, _ = thm3_lambda_half(6)
    prof = profile_structure(g)
    assert 3 in prof.lambdas


def test_profile_structure_degrades_on_budget():
    g = complete_balanced(10)
    prof = profile_structure(g, budget=10)
    assert not prof.exhaustive
    assert prof.forest_number == 11
    assert prof.lambdas == frozenset({1})


def test_jobs_parameter_gives_identical_report():
    a = verify_t1_random(5, samples=6, seed=4, jobs=1)
    b = verify_t1_random(5, samples=6, seed=4, jobs=2)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def _solve_with_whole_graph(g):
    # a solver whose witness is every vertex: wrong size, and not a forest
    full = (1 << g.n) - 1
    return SolveResult(g.n + 2, VertexSubset(full, full), g.n - 2, 0, 0.0)


# claim, patched theorems global, stand-in, sizes, details (sorted); the
# details were recorded before the construction checks shared one loop
CONSTRUCTION_FAILURES = [
    ("P1", "prop1_construction", lambda n: complete_balanced(n), {"ns": [4]},
     ["forest number 5, expected 6 (n=4)",
      "minimum degree 4, expected 2 (n=4)"]),
    ("P1", "max_forest", _solve_with_whole_graph, {"ns": [4]},
     ["solver witness failed the independent forest check",
      "witness size disagrees with forest number"]),
    ("T6λ1", "complete_balanced", lambda n: prop1_construction(n),
     {"ns": [4]},
     ["forest number 6, expected 5 (n=4)"]),
    ("T6λ2", "thm3_lambda2",
     lambda n: (prop1_construction(n), VertexSubset(0b111, 0b1)), {"ns": [4]},
     ["advertised witness failed shape checks (n=4)",
      "forest number 6, expected 5 (n=4)",
      "minimum degree 2 below 3 (n=4)"]),
    ("T6λhalf", "thm3_lambda_half",
     lambda n: (thm3_lambda_half(n)[0], VertexSubset((1 << n) - 1, 1)),
     {"ns": [6]},
     ["advertised witness failed shape checks (n=6)"]),
    ("T7l1", "thh1_l1", lambda n, k: complete_balanced(n + 1),
     {"pairs": [(5, 2)]},
     ["minimum degree 6, expected 2 (n=5, k=2)"]),
    ("T7l2", "thh1_l2", lambda n, k: complete_balanced(n + 1),
     {"pairs": [(6, 2)]},
     ["canonical witness failed (n=6, k=2)",
      "forest number 8, expected 9 (n=6, k=2)",
      "minimum degree 7, expected 2 (n=6, k=2)"]),
]


@pytest.mark.parametrize("tid, attr, fake, sizes, details",
                         CONSTRUCTION_FAILURES,
                         ids=[f"{c[0]}-{c[1]}" for c in CONSTRUCTION_FAILURES])
def test_construction_failures_name_each_check(monkeypatch, tid, attr, fake,
                                               sizes, details):
    monkeypatch.setattr(theorems, attr, fake)
    rep = verify_constructions(tid, **sizes)
    assert rep.verdict == "fail"
    assert rep.instances_checked == 1
    assert sorted(c["detail"] for c in rep.counterexamples) == details
    # every record replays: the instance is embedded as BBG text
    assert all(parse_bbg(c["bbg"]).n >= 4 for c in rep.counterexamples)
