import io
import json

import pytest

import bbforest.cli as cli
from bbforest import (THEOREM_IDS, VerificationReport, emit_bbg,
                      prop1_construction)
from bbforest.cli import run

K22 = "BBG 1\n2\n11\n11\n"


def _write(tmp_path, text):
    path = tmp_path / "g.bbg"
    path.write_text(text, encoding="ascii")
    return str(path)


def test_solve_text_output(tmp_path, capsys):
    assert run(["solve", "--in", _write(tmp_path, K22)]) == 0
    out = capsys.readouterr().out
    assert "forest number: 3" in out
    assert "decycling number: 1" in out
    assert "witness V1: 0 1" in out
    assert "witness V2: 0" in out


def test_solve_json_output(tmp_path, capsys):
    assert run(["solve", "--in", _write(tmp_path, K22),
                "--format", "json", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "n": 2,
        "forest_number": 3,
        "decycling_number": 1,
        "witness": {"v1": [0, 1], "v2": [0]},
        "nodes_explored": payload["nodes_explored"],
    }
    assert "elapsed_ms" not in payload


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(K22))
    assert run(["solve"]) == 0
    assert "forest number: 3" in capsys.readouterr().out


def test_solve_brute_agrees(tmp_path, capsys):
    path = _write(tmp_path, emit_bbg(prop1_construction(5)))
    assert run(["solve", "--in", path, "--format", "json", "--no-timing"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert run(["solve", "--in", path, "--brute",
                "--format", "json", "--no-timing"]) == 0
    brute = json.loads(capsys.readouterr().out)
    assert exact["forest_number"] == brute["forest_number"] == 7
    assert exact["witness"] == brute["witness"]


def test_solve_malformed_input_names_line(tmp_path, capsys):
    assert run(["solve", "--in", _write(tmp_path, "BBG 1\n2\n11\n1\n")]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("solve", "profile"))
def test_non_ascii_file_names_line(tmp_path, capsys, command):
    path = tmp_path / "g.bbg"
    path.write_bytes(b"BBG 1\n2\n1\xc3\xa9\n11\n")
    assert run([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: non-ASCII byte 0xc3\n"


@pytest.mark.parametrize("text, byte", [
    # stdin decoded with surrogate escapes (UTF-8 mode) keeps a bad byte as
    # U+DCxx; a valid UTF-8 character is named by its first byte
    ("BBG 1\n2\n1\udcff\n11\n", "0xff"),
    ("BBG 1\n2\n1\u00e9\n11\n", "0xc3"),
])
def test_non_ascii_stdin_names_byte_and_line(monkeypatch, capsys, text, byte):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["solve"]) == 2
    assert capsys.readouterr().err == f"error: line 3: non-ASCII byte {byte}\n"


def test_solve_missing_file(capsys):
    assert run(["solve", "--in", "/no/such/file.bbg"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_solve_part_cap_names_limit(tmp_path, capsys):
    big = "BBG 1\n65\n" + "\n".join("0" * 65 for _ in range(65)) + "\n"
    assert run(["solve", "--in", _write(tmp_path, big)]) == 2
    assert "64" in capsys.readouterr().err


def test_gen_matches_library(capsys):
    assert run(["gen", "--family", "prop1", "--n", "6"]) == 0
    assert capsys.readouterr().out == emit_bbg(prop1_construction(6))


def test_gen_missing_param(capsys):
    assert run(["gen", "--family", "thh1_l1", "--n", "7"]) == 2
    assert "k" in capsys.readouterr().err


def test_gen_rejects_unknown_family(capsys):
    assert run(["gen", "--family", "nope", "--n", "4"]) == 2


def test_gen_pipes_into_solve(tmp_path, capsys, monkeypatch):
    assert run(["gen", "--family", "complete", "--n", "3"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["solve", "--format", "json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["forest_number"] == 4


def test_verify_construction_pass(capsys):
    assert run(["verify", "--theorem", "P1", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_id"] == "P1"
    assert payload["verdict"] == "pass"
    assert "elapsed_ms" not in payload


@pytest.mark.parametrize("alias", ["T6λ2", "T6l2", "t6lambda2"])
def test_verify_theorem_aliases(alias, capsys):
    assert run(["verify", "--theorem", alias, "--n", "4", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["theorem_id"] == "T6λ2"


def test_verify_unknown_theorem(capsys):
    assert run(["verify", "--theorem", "T99"]) == 2
    assert "unknown theorem" in capsys.readouterr().err


def test_verify_t1_exhaustive_merges_sizes(capsys):
    assert run(["verify", "--theorem", "T1", "--exhaustive",
                "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances_checked"] == 211
    assert [r["n"] for r in payload["params"]["runs"]] == [2, 3, 4]


def test_verify_t1_random_default(capsys):
    assert run(["verify", "--theorem", "T1", "--n", "5",
                "--samples", "5", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances_checked"] == 5


def test_verify_structure_text_format(capsys):
    assert run(["verify", "--theorem", "C1", "--samples", "4",
                "--format", "text", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "theorem C1: pass" in out
    assert "elapsed" not in out


def test_verify_t7_takes_n_and_k_together(capsys):
    assert run(["verify", "--theorem", "T7l1", "--n", "5", "--k", "2",
                "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["pairs"] == [[5, 2]]
    assert run(["verify", "--theorem", "T7l1", "--n", "5"]) == 2


def test_verify_bounds_via_n(capsys):
    assert run(["verify", "--theorem", "BOUNDS", "--n", "80",
                "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["n_max"] == 80


def test_verify_no_timing_is_byte_stable(capsys):
    argv = ["verify", "--theorem", "T8", "--n", "5", "--samples", "3",
            "--no-timing"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_jobs_do_not_change_output(capsys):
    base = ["verify", "--theorem", "T1", "--n", "5", "--samples", "4",
            "--no-timing"]
    assert run(base + ["--jobs", "1"]) == 0
    one = capsys.readouterr().out
    assert run(base + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == one


@pytest.mark.parametrize("jobs", ("0", "-4"))
def test_verify_rejects_jobs_below_one(capsys, jobs):
    assert run(["verify", "--theorem", "T1", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("jobs, cpus, workers", [
    ("64", 2, [2]), ("3", 8, [3]), ("5", None, []), ("1", 4, [])])
def test_verify_jobs_clamped_to_cpu_count(monkeypatch, capsys, jobs, cpus,
                                          workers):
    requested = []

    class SerialPool:
        # stands in for ProcessPoolExecutor, so no worker starts
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("bbforest.theorems.ProcessPoolExecutor", SerialPool)
    base = ["verify", "--theorem", "T1", "--n", "5", "--samples", "4",
            "--no-timing"]
    assert run(base + ["--jobs", jobs]) == 0
    assert requested == workers
    pooled = capsys.readouterr().out
    assert run(base) == 0
    assert capsys.readouterr().out == pooled


def test_verify_failing_report_exits_one(monkeypatch, capsys):
    forced = VerificationReport("BOUNDS", {"n_max": 5}, 1,
                                [{"bbg": None, "detail": "forced"}])
    monkeypatch.setattr(cli, "check_bounds", lambda n_max: forced)
    assert run(["verify", "--theorem", "BOUNDS"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"
    assert run(["bounds"]) == 1


def test_bounds_subcommand(capsys):
    assert run(["bounds", "--n-max", "40", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_id"] == "BOUNDS"
    assert payload["verdict"] == "pass"


def test_profile_json(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(K22))
    assert run(["profile"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["forest_number"] == 3
    assert payload["lambdas"] == [1]
    assert payload["exhaustive"] is True
    assert payload["witness_per_lambda"]["1"] == {"v1": [0, 1], "v2": [0]}


def test_profile_text(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(K22))
    assert run(["profile", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "forest number: 3" in out
    assert "exhaustive: yes" in out


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["solve", "--format", "yaml"]) == 2
    assert run(["nope"]) == 2


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    assert run(["solve"]) == 3
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["solve", "--help"]) == 0


def test_claim_table_follows_theorem_ids():
    assert tuple(cli._CLAIMS) == THEOREM_IDS


@pytest.mark.parametrize("tid", ["T1", "T2", "T4", "C1", "T8"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_exits_two(capsys, tid, samples):
    # an explicit count reaches the library's check; it is never replaced
    # by the sweep's default
    assert run(["verify", "--theorem", tid, "--samples", samples]) == 2
    assert capsys.readouterr().err == (
        f"error: need samples >= 1, got {samples}\n")


@pytest.mark.parametrize("argv, err", [
    (["T1", "--n", "5", "--n", "6"], "--theorem T1 takes one --n"),
    (["T2", "--n", "5", "--n", "7"], "--theorem T2 takes one --n"),
    (["T4", "--n", "5", "--n", "7"], "--theorem T4 takes one --n"),
    (["C1", "--n", "5", "--n", "7"], "--theorem C1 takes one --n"),
    (["BOUNDS", "--n", "10", "--n", "20"], "--theorem BOUNDS takes one --n"),
    (["P1", "--k", "2"], "--theorem P1 does not read --k"),
    (["T2", "--n", "5", "--k", "2"], "--theorem T2 does not read --k"),
    (["T8", "--k", "2"], "--theorem T8 does not read --k"),
    (["T6l2", "--samples", "3"], "--theorem T6λ2 does not read --samples"),
    (["T7l1", "--n", "5", "--k", "2", "--samples", "3"],
     "--theorem T7l1 does not read --samples"),
    (["BOUNDS", "--samples", "3"], "--theorem BOUNDS does not read --samples"),
    (["T1", "--exhaustive", "--samples", "3"],
     "--theorem T1 --exhaustive does not read --samples"),
    (["T1", "--exhaustive", "--seed", "3"],
     "--theorem T1 --exhaustive does not read --seed"),
    (["P1", "--seed", "3"], "--theorem P1 does not read --seed"),
    (["BOUNDS", "--jobs", "2"], "--theorem BOUNDS does not read --jobs"),
    (["T2", "--exhaustive"], "--theorem T2 does not read --exhaustive"),
    (["P1", "--exhaustive"], "--theorem P1 does not read --exhaustive"),
])
def test_verify_rejects_options_the_claim_does_not_read(capsys, argv, err):
    assert run(["verify", "--theorem", *argv, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_verify_accepts_the_benchmark_sweep_options(capsys):
    assert run(["verify", "--theorem", "T2", "--n", "5", "--samples", "1",
                "--seed", "3", "--jobs", "1", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["seed"] == 3
    assert payload["verdict"] == "pass"


def test_verify_has_no_budget_option(capsys):
    assert run(["verify", "--theorem", "T2", "--n", "6", "--samples", "1",
                "--budget", "0"]) == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err
