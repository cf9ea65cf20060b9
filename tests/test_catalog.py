"""The claim catalog's CLI output, pinned.

Every claim id runs through ``bbforest verify --no-timing --format json`` at
its defaults and at one small explicit size; the report's id, params,
instance count and verdict must match the values below, which were recorded
before the catalog became table-driven. ``gen`` is pinned the same way for
every family.
"""

import json

import pytest

from bbforest import FAMILIES, THEOREM_IDS
from bbforest.cli import run

BOUNDS_K2_SAMPLE = [[5, 2, "5"], [6, 2, "6"], [7, 2, "7"], [8, 2, "8"],
                    [9, 2, "9"]]

VERIFY = [
    (["T1"],
     ("T1", {"n": 6, "samples": 100, "seed": 1, "min_degree_threshold": 4},
      100, "pass")),
    (["T1", "--n", "5", "--samples", "3", "--seed", "4"],
     ("T1", {"n": 5, "samples": 3, "seed": 4, "min_degree_threshold": 4},
      3, "pass")),
    (["T1", "--exhaustive", "--n", "3"],
     ("T1", {"n": 3, "min_degree_threshold": 3, "matrices_scanned": 512},
      1, "pass")),
    (["T1", "--exhaustive", "--n", "2", "--n", "3"],
     ("T1", {"runs": [{"n": 2, "min_degree_threshold": 2,
                       "matrices_scanned": 16},
                      {"n": 3, "min_degree_threshold": 3,
                       "matrices_scanned": 512}]}, 2, "pass")),
    (["P1"],
     ("P1", {"n_values": [2, 3, 4, 5, 6, 7, 8, 9, 10]}, 9, "pass")),
    (["P1", "--n", "4", "--n", "5"],
     ("P1", {"n_values": [4, 5]}, 2, "pass")),
    (["T2"],
     ("T2", {"n": 6, "samples": 25, "seed": 1, "check": "T2",
             "min_degree_threshold": 4, "witnesses_enumerated": 362},
      25, "pass")),
    (["T2", "--n", "5", "--samples", "2"],
     ("T2", {"n": 5, "samples": 2, "seed": 1, "check": "T2",
             "min_degree_threshold": 4, "witnesses_enumerated": 20},
      2, "pass")),
    (["T4"],
     ("T4", {"n": 7, "samples": 25, "seed": 1, "check": "T4",
             "min_degree_threshold": 5, "witnesses_enumerated": 350},
      25, "pass")),
    (["T4", "--n", "6", "--samples", "1"],
     ("T4", {"n": 6, "samples": 1, "seed": 1, "check": "T4",
             "min_degree_threshold": 4, "witnesses_enumerated": 12,
             "note": "vacuous for even n"}, 1, "pass")),
    (["C1"],
     ("C1", {"n": 5, "samples": 25, "seed": 1, "check": "C1",
             "min_degree_threshold": 4, "witnesses_enumerated": 250},
      25, "pass")),
    (["C1", "--n", "7", "--samples", "1", "--seed", "3"],
     ("C1", {"n": 7, "samples": 1, "seed": 3, "check": "C1",
             "min_degree_threshold": 5, "witnesses_enumerated": 14},
      1, "pass")),
    (["T6λ1"],
     ("T6λ1", {"n_values": [2, 3, 4, 5, 6, 7, 8]}, 7, "pass")),
    (["T6λ1", "--n", "3"],
     ("T6λ1", {"n_values": [3]}, 1, "pass")),
    (["T6λ2"],
     ("T6λ2", {"n_values": [4, 6, 8, 10]}, 4, "pass")),
    (["T6λhalf", "--n", "6", "--n", "4"],
     ("T6λhalf", {"n_values": [6, 4]}, 2, "pass")),
    (["T7l1"],
     ("T7l1", {"pairs": [[3, 2], [5, 2], [5, 3], [7, 3]]}, 4, "pass")),
    (["T7l1", "--n", "5", "--n", "7", "--k", "3"],
     ("T7l1", {"pairs": [[5, 3], [7, 3]]}, 2, "pass")),
    (["T7l2"],
     ("T7l2", {"pairs": [[6, 2], [6, 3], [8, 3]]}, 3, "pass")),
    (["T7l2", "--n", "6", "--k", "2"],
     ("T7l2", {"pairs": [[6, 2]]}, 1, "pass")),
    (["T8"],
     ("T8", {"n_values": [5, 7, 9], "samples": 25, "seed": 1}, 75, "pass")),
    (["T8", "--n", "7", "--samples", "2", "--seed", "5"],
     ("T8", {"n_values": [7], "samples": 2, "seed": 5}, 2, "pass")),
    (["BOUNDS"],
     ("BOUNDS", {"n_max": 1000,
                 "fractional_near_misses": [["h", 7, 3, "15/2"]],
                 "h_k2_below_threshold": {"count": 996,
                                          "sample": BOUNDS_K2_SAMPLE}},
      623252, "pass")),
    (["BOUNDS", "--n", "30"],
     ("BOUNDS", {"n_max": 30,
                 "fractional_near_misses": [["h", 7, 3, "15/2"]],
                 "h_k2_below_threshold": {"count": 26,
                                          "sample": BOUNDS_K2_SAMPLE}},
      512, "pass")),
]

GEN = [
    (["complete", "--n", "3"],
     "BBG 1\n3\n111\n111\n111\n"),
    (["prop1", "--n", "4"],
     "BBG 1\n4\n0011\n1100\n1111\n1111\n"),
    (["thm3_lambda2", "--n", "6"],
     "BBG 1\n6\n111001\n001111\n111111\n111111\n111110\n111110\n"),
    (["thm3_lambda_half", "--n", "6"],
     "BBG 1\n6\n110011\n011011\n001111\n111110\n111101\n111100\n"),
    (["thh1_l1", "--n", "3", "--k", "2"],
     "BBG 1\n4\n1111\n1111\n1111\n1001\n"),
    (["thh1_l2", "--n", "4", "--k", "2"],
     "BBG 1\n5\n11101\n11111\n11110\n11110\n00011\n"),
    (["random_min_degree", "--n", "5", "--delta-min", "2", "--seed", "1"],
     "BBG 1\n5\n10011\n10111\n01011\n01001\n11111\n"),
    (["random_th7", "--n", "5", "--seed", "2"],
     "BBG 1\n5\n01110\n11111\n11111\n01111\n11111\n"),
]


@pytest.mark.parametrize("argv, expected", VERIFY,
                         ids=[" ".join(argv) for argv, _ in VERIFY])
def test_verify_report_pinned(capsys, argv, expected):
    code = run(["verify", "--theorem", *argv, "--format", "json",
                "--no-timing"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (report["theorem_id"], report["params"],
            report["instances_checked"], report["verdict"]) == expected


def test_every_claim_and_family_is_pinned():
    assert {expected[0] for _, expected in VERIFY} == set(THEOREM_IDS)
    assert [argv[0] for argv, _ in GEN] == list(FAMILIES)


@pytest.mark.parametrize("argv, text", GEN, ids=[argv[0] for argv, _ in GEN])
def test_gen_text_pinned(capsys, argv, text):
    assert run(["gen", "--family", *argv]) == 0
    assert capsys.readouterr().out == text
