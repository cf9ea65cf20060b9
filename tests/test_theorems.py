import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bbforest.solver as solver
import bbforest.theorems as theorems
from bbforest import (ENUMERATION_BUDGET, ParameterError, PostconditionError,
                      SolveResult, VerificationReport, VertexSubset, bound_g,
                      bound_h, bound_t8, check_bounds, complete_balanced,
                      enumerate_max_forests, from_rows, max_forest,
                      merge_reports, parse_bbg, profile_structure,
                      prop1_construction, random_min_degree, thh1_l1,
                      thm3_lambda2, thm3_lambda_half, verify_constructions,
                      verify_structure, verify_t1_exhaustive,
                      verify_t1_random, verify_t8)
from bbforest.cli import run

from .helpers import random_bipartite


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
    # the sweep's table holds each public bound, scaled by 2
    bounds = {"g": bound_g, "h": bound_h, "t8": bound_t8}
    rows = theorems._INEQUALITIES
    assert [row[0] for row in rows] == list(bounds)
    for name, _, _, twice, _ in rows:
        assert 2 * bounds[name](n, k) == twice(n, k)


def test_check_bounds_records_failing_bounds(monkeypatch, capsys):
    # every bound of the table asked for 100 more than it must reach fails
    # at each k it is claimed for, with the detail it has always carried
    raised = [(name, plus + 100, *rest)
              for name, plus, *rest in theorems._INEQUALITIES]
    monkeypatch.setattr(theorems, "_INEQUALITIES", raised)
    details = [c["detail"] for c in check_bounds(7).counterexamples]
    assert details[:3] == ["g(n=2, k=2) = 4 has ceiling below 104",
                           "g(n=3, k=2) = 5 has ceiling below 105",
                           "t8(n=3, k=2) = 5 below 105"]
    assert "h(n=7, k=3) = 15/2 has ceiling below 108" in details
    # a made-up bound that meets n + 2 at k = 2, falls half an edge short
    # at k = 3 and a whole one from k = 4 on
    monkeypatch.setattr(theorems, "_INEQUALITIES", [
        ("z", 2, lambda n: 4, lambda n, k: 2 * (n + 2) - (k - 2), "below")])
    rep = check_bounds(15)
    assert rep.instances_checked == 3 * 14
    assert rep.params["fractional_near_misses"] == [
        ["z", n, 3, f"{2 * n + 3}/2"] for n in range(2, 16)]
    assert rep.counterexamples == [
        {"bbg": None, "detail": f"z(n={n}, k=4) = {n + 1} below {n + 2}"}
        for n in range(2, 16)]
    assert "\n    ... and 4 more\n" in rep.render_text()
    assert run(["verify", "--theorem", "BOUNDS", "--n", "15"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


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


@pytest.mark.parametrize("n,qualifying",
                         [(2, 1), (3, 1), (4, 209), (5, 1546)])
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


def test_t1_exhaustive_rejects_n_outside_2_to_5():
    for n in (1, 6):
        with pytest.raises(ParameterError, match=f"covers n in 2..5, got {n}"):
            verify_t1_exhaustive(n)


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


@pytest.mark.parametrize("check,n", [("C1", 21), ("T2", 20)])
def test_structure_sweeps_pass_above_n_12(check, n):
    # C(2n, f) is over 10^10 here; the sweep lists every maximum forest,
    # and its cost follows their number
    rep = verify_structure(n, samples=3, seed=1, check=check)
    assert rep.verdict == "pass"
    assert rep.params["witnesses_enumerated"] >= 3


@pytest.mark.parametrize("sweep", [
    lambda jobs: verify_t1_random(5, samples=2, jobs=jobs),
    lambda jobs: verify_structure(5, samples=1, jobs=jobs),
    lambda jobs: verify_t8([5], samples=1, jobs=jobs),
], ids=["T1", "T2", "T8"])
@pytest.mark.parametrize("jobs", (0, -3))
def test_seeded_sweeps_reject_jobs_below_one(sweep, jobs):
    with pytest.raises(ParameterError, match="jobs"):
        sweep(jobs)


def test_structure_rejects_bad_params():
    with pytest.raises(ParameterError):
        verify_structure(6, check="C1")      # even n
    with pytest.raises(ParameterError):
        verify_structure(65, check="T2")     # beyond the solver's part cap
    with pytest.raises(ParameterError):
        verify_structure(1, check="T2")
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


@pytest.mark.parametrize("tid, sizes", [
    ("P1", {"pairs": [(5, 2)]}),
    ("T6λ2", {"pairs": []}),
    ("T7l1", {"ns": [6]}),
    ("T7l2", {"ns": [6], "pairs": [(6, 2)]}),
])
def test_construction_sweep_rejects_the_size_argument_it_does_not_read(
        tid, sizes):
    with pytest.raises(ParameterError, match="does not read"):
        verify_constructions(tid, **sizes)


@pytest.mark.parametrize("sweep", [
    lambda: verify_t8(n_values=[]),
    lambda: verify_constructions("P1", ns=[]),
    lambda: verify_constructions("T7l1", pairs=[]),
], ids=["T8", "P1", "T7l1"])
def test_sweeps_reject_an_empty_size_list(sweep):
    with pytest.raises(ParameterError, match="need at least one"):
        sweep()


@pytest.mark.parametrize("sweep, err", [
    (lambda: verify_t8(n_values=[5, 7, 5]), "n 5 given twice"),
    (lambda: verify_constructions("P1", ns=[3, 3]), "n 3 given twice"),
    (lambda: verify_constructions("T7l1", pairs=[(5, 2), (5, 3), (5, 2)]),
     r"pair \(5, 2\) given twice"),
], ids=["T8", "P1", "T7l1"])
def test_sweeps_reject_a_repeated_size(sweep, err):
    with pytest.raises(ParameterError, match=err):
        sweep()


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


def _profile_reference(g, budget=ENUMERATION_BUDGET):
    # the profile as two calls make it: the solve, then every forest of its
    # size, or only the solver's witness when C(2n, f) exceeds the budget
    res = max_forest(g)
    f = res.forest_number
    exhaustive = math.comb(2 * g.n, f) <= budget
    per = {}
    for w in enumerate_max_forests(g) if exhaustive else [res.witness]:
        per.setdefault(w.min_part_size(), w)
    return {"forest_number": f, "lambdas": sorted(per),
            "witness_per_lambda": {
                str(lam): {"v1": list(w.indices()[0]),
                           "v2": list(w.indices()[1])}
                for lam, w in sorted(per.items())},
            "exhaustive": exhaustive}


# (graph, budget); random_min_degree(15, 9, 1) is over the default budget
GNP_PROFILES = [(2, 0.5, 1), (3, 0.5, 2), (4, 0.3, 3), (5, 0.6, 4),
                (6, 0.4, 5), (7, 0.3, 6), (8, 0.5, 7), (9, 0.3, 4),
                (10, 0.2, 8), (12, 0.3, 7)]
PROFILE_CASES = (
    [(lambda n=n, p=p, s=s: random_bipartite(n, p, s), ENUMERATION_BUDGET)
     for n, p, s in GNP_PROFILES]
    + [(lambda n=n: random_min_degree(n, (n + 3) // 2, 1), ENUMERATION_BUDGET)
       for n in (5, 8, 9, 15)]
    + [(lambda: thm3_lambda2(6)[0], ENUMERATION_BUDGET),
       (lambda: thm3_lambda_half(8)[0], ENUMERATION_BUDGET),
       (lambda: thh1_l1(5, 2), ENUMERATION_BUDGET),
       (lambda: prop1_construction(6), ENUMERATION_BUDGET),
       (lambda: complete_balanced(10), 10),
       (lambda: random_bipartite(8, 0.5, 7), 10)])
PROFILE_IDS = ([f"gnp{n}p{round(100 * p)}s{s}" for n, p, s in GNP_PROFILES]
               + [f"rmd{n}" for n in (5, 8, 9, 15)]
               + ["t6l2", "t6lhalf", "t7l1", "p1", "k10-budget10",
                  "gnp8-budget10"])


@pytest.mark.parametrize("make, budget", PROFILE_CASES, ids=PROFILE_IDS)
def test_profile_structure_matches_solve_then_enumerate(make, budget,
                                                        monkeypatch):
    g = make()
    expected = _profile_reference(g, budget)
    searches = []

    class Counted(solver._Search):
        def __init__(self, g):
            searches.append(g)
            super().__init__(g)

    monkeypatch.setattr(solver, "_Search", Counted)
    assert profile_structure(g, budget).to_dict() == expected
    assert len(searches) == 1


def test_profile_structure_raises_on_an_empty_walk(monkeypatch):
    monkeypatch.setattr(solver, "_lex_walk", lambda *args: iter(()))
    with pytest.raises(PostconditionError):
        profile_structure(complete_balanced(3))


def test_jobs_parameter_gives_identical_report():
    a = verify_t1_random(5, samples=6, seed=4, jobs=1)
    b = verify_t1_random(5, samples=6, seed=4, jobs=2)
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def _solve_with_whole_graph(g):
    # a solver whose witness is every vertex: wrong size, and not a forest
    full = (1 << g.n) - 1
    return SolveResult(g.n + 2, VertexSubset(full, full), g.n - 2, 0, 0.0)


# claim, patched theorems global, stand-in, sizes, details (sorted). The
# sweep checks only the conclusion, so a stand-in generator that breaks its
# family's degrees or witness is reported by the forest number alone.
CONSTRUCTION_FAILURES = [
    ("P1", "prop1_construction", lambda n: complete_balanced(n), {"ns": [4]},
     ["forest number 5, expected 6 (n=4)"]),
    ("P1", "max_forest", _solve_with_whole_graph, {"ns": [4]},
     ["solver witness failed the independent forest check",
      "witness size disagrees with forest number"]),
    ("T6λ1", "complete_balanced", lambda n: prop1_construction(n),
     {"ns": [4]},
     ["forest number 6, expected 5 (n=4)"]),
    ("T6λ2", "thm3_lambda2",
     lambda n: (prop1_construction(n), VertexSubset(0b111, 0b1)), {"ns": [4]},
     ["forest number 6, expected 5 (n=4)"]),
    ("T7l2", "thh1_l2", lambda n, k: complete_balanced(n + 1),
     {"pairs": [(6, 2)]},
     ["forest number 8, expected 9 (n=6, k=2)"]),
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


def _one_witness(w):
    # an enumeration that finds the single witness ``w``
    return lambda g: iter([w])


# degrees V1 2, 3, 3, 5, 5 and V2 5, 3, 4, 3, 3: below T8's floor of 3 at
# n = 5, with two floor-degree vertices in each part. The sweep checks only
# the conclusion, so it reports the forest number alone.
T8_BELOW_FLOOR = from_rows(5, ["11000", "10101", "10110", "11111", "11111"])

# run, patched theorems global, stand-in, details (sorted)
SEEDED_FAILURES = [
    ("T2", lambda: verify_structure(5, samples=1, check="T2"),
     "enumerate_max_forests", _one_witness(VertexSubset(0b111, 0b111)),
     ["witness with smaller part 3 outside [1, 2] (seed 1)"]),
    ("T4", lambda: verify_structure(5, samples=1, check="T4"),
     "enumerate_max_forests", _one_witness(VertexSubset(0b11, 0b1111)),
     ["smaller part 2 witness on odd n=5 (seed 1)"]),
    ("C1", lambda: verify_structure(5, samples=1, check="C1"),
     "enumerate_max_forests", _one_witness(VertexSubset(0b11, 0b1111)),
     ["witness with smaller part 2 != 1 on odd n=5 (seed 1)"]),
    ("C1", lambda: verify_structure(3, samples=1, check="C1"),
     "is_induced_forest", lambda g, w: w.min_part_size() != 1,
     ["solver witness failed the independent forest check"]),
    ("T8", lambda: verify_t8([5], samples=1),
     "random_th7", lambda n, seed: T8_BELOW_FLOOR,
     ["forest number 7, expected 6 (seed 1)"]),
]


@pytest.mark.parametrize("tid, sweep, attr, fake, details", SEEDED_FAILURES,
                         ids=[f"{c[0]}-{c[2]}" for c in SEEDED_FAILURES])
def test_seeded_failures_name_each_check(monkeypatch, tid, sweep, attr, fake,
                                         details):
    monkeypatch.setattr(theorems, attr, fake)
    rep = sweep()
    assert rep.theorem_id == tid
    assert rep.verdict == "fail"
    assert rep.instances_checked == 1
    assert sorted(c["detail"] for c in rep.counterexamples) == details
    assert all(parse_bbg(c["bbg"]).n >= 3 for c in rep.counterexamples)
