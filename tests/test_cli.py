import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coxpizza import cli
from coxpizza.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matchings_list(capsys):
    code, out, _ = run_cli(capsys, "matchings", "--size", "4", "--list")
    assert code == 0
    assert out.splitlines() == [
        "(1,2)(3,4);sign=+1",
        "(1,3)(2,4);sign=-1",
        "(1,4)(2,3);sign=+1",
    ]


def test_matchings_sign_sum(capsys):
    code, out, _ = run_cli(capsys, "matchings", "--size", "11", "--sign-sum")
    assert code == 0 and out.strip() == "1"


def test_tables_type_d_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "D")
    assert code == 0
    assert "D_3" in out and "D_5" in out and "MISMATCH" not in out


def test_tables_type_d_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "D", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1 and doc["all_match"] is True
    ranks = [(row["family"], row["rank"]) for row in doc["rows"]]
    assert ranks == [("D", 3), ("D", 5)]
    d3 = doc["rows"][0]
    assert d3["computed_lead"] == {"num": -1, "den": 6}
    assert d3["computed_second_coeff"] == {"num": -1, "den": 10}


def test_tables_type_a_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "A", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert [(row["family"], row["rank"]) for row in doc["rows"]] == [
        ("A", 2), ("A", 3), ("A", 6), ("A", 7)]
    assert [row["computed_second_coeff"] for row in doc["rows"]] == [
        {"num": 3, "den": 32}, {"num": -1, "den": 10},
        {"num": -315315, "den": 8192}, {"num": 323323, "den": 128}]


def test_expand_text_json_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "expand", "--spec", "A:2", "--degrees", "3,5,7")
    assert code == 0 and "degree 3: 1/2" in out

    code, out, _ = run_cli(capsys, "expand", "--spec", "A:2", "--degrees", "3,5",
                           "--format", "json")
    doc = json.loads(out)
    assert [e["degree"] for e in doc["entries"]] == [3, 5]

    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "expand", "--spec", "D:3", "--degrees", "6",
                         "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "degree,kind,exponents,num,den"
    assert lines[1] == "6,quotient,0 0 0,-1,6"


def test_expand_refuses_over_cap(capsys):
    code, _, err = run_cli(capsys, "expand", "--spec", "A:2", "--degrees", "61")
    assert code == 2 and "refused" in err


def test_expand_accepts_frontier_job_with_progress():
    # the next open type A case runs to completion, and its last progress
    # line counts every matching visited
    proc = subprocess.run(
        [sys.executable, "-m", "coxpizza.cli", "expand", "--spec", "A:10", "--degrees", "55"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    progress = [line for line in proc.stderr.splitlines() if "matchings" in line]
    assert progress and progress[-1].endswith("10395/10395 matchings (100%)"), proc.stderr
    assert "degree 55: " in proc.stdout


def test_oracle_mc_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", "A1k:1@1", "--center", "0.37",
                           "--method", "mc", "--samples", "50000", "--seed", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert {"value", "std_error", "samples", "seed"} <= set(doc)
    assert abs(doc["value"] - 0.74) < 0.05


def test_oracle_series_and_sum2s(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", "A1k:2@3", "--center", "0.3,0.2,0.0",
                           "--method", "series", "--degree-cap", "41", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "tail_bound" in doc and doc["degree_cap"] == 41

    code, out, _ = run_cli(capsys, "oracle", "--spec", "D:3", "--center", "0.25,0.1,0.03",
                           "--method", "sum2s", "--degree-cap", "41", "--format", "json")
    assert code == 0
    assert "tail_bound" in json.loads(out)


def test_oracle_series_requires_a1k(capsys):
    code, _, err = run_cli(capsys, "oracle", "--spec", "D:3", "--center", "0.1,0.1,0.1",
                           "--method", "series")
    assert code == 2 and "A1k" in err


def test_check_commands_exit_zero(capsys):
    assert run_cli(capsys, "check", "lemma51", "--rank", "3", "--degree", "8")[0] == 0
    assert run_cli(capsys, "check", "schur", "--rank", "3", "--degree", "8")[0] == 0
    assert run_cli(capsys, "check", "t-pos", "--max-degree", "12")[0] == 0
    assert run_cli(capsys, "check", "y-neg", "--rank", "3", "--max-degree", "10")[0] == 0
    code, out, _ = run_cli(capsys, "check", "sign", "--spec", "A:2", "--centers", "auto:3",
                           "--seed", "5")
    assert code == 0 and "consistent" in out


def test_check_json_report(capsys):
    code, out, _ = run_cli(capsys, "check", "y-neg", "--rank", "3", "--max-degree", "8",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["conjecture_id"] == "yNeg" and doc["verdict"] == "consistent"


def test_usage_errors(capsys):
    assert run_cli(capsys, "expand", "--spec", "B:4", "--degrees", "3")[0] == 2
    assert run_cli(capsys, "expand", "--spec", "A:4", "--degrees", "10")[0] == 2  # same parity


def test_pizza_threads_env_fallback(monkeypatch, capsys):
    seen = []
    real_mc = cli.mc_pizza

    def capture(*args, threads):
        seen.append(threads)
        return real_mc(*args, threads=threads)

    monkeypatch.setattr(cli, "mc_pizza", capture)
    argv = ("oracle", "--spec", "A1k:1@1", "--center", "0.37", "--samples", "1000",
            "--format", "json")
    monkeypatch.setenv("PIZZA_THREADS", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["samples"] == 1000 and seen == [2]
    monkeypatch.setenv("PIZZA_THREADS", "many")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "PIZZA_THREADS" in err


def test_exit_code_contract_for_violations():
    from coxpizza.cli import (EXIT_EXPLORE_VIOLATION, EXIT_OK,
                              EXIT_VERIFICATION_FAILURE, _report_exit)
    from coxpizza.conjectures import ConjectureReport

    violated = ConjectureReport("tPos", {}, "violated", [{"degree": 99}])
    consistent = ConjectureReport("tPos", {}, "consistent", [])
    assert _report_exit(violated, "test") == EXIT_VERIFICATION_FAILURE
    assert _report_exit(violated, "explore") == EXIT_EXPLORE_VIOLATION
    assert _report_exit(consistent, "test") == EXIT_OK


def test_threads_resolved_once(monkeypatch, capsys):
    seen = []
    real_mc = cli.mc_pizza

    def capture(*args, threads):
        seen.append(threads)
        return real_mc(*args, threads=threads)

    monkeypatch.setattr(cli, "mc_pizza", capture)
    outputs = []
    for threads in ("0", "1"):
        code, out, _ = run_cli(capsys, "oracle", "--spec", "A1k:1@1", "--center", "0.37",
                               "--samples", "200000", "--seed", "3", "--format", "json",
                               "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert seen == [os.cpu_count() or 1, 1]
    assert outputs[0] == outputs[1]


def test_negative_threads_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--spec", "A1k:1@1", "--center", "0.37",
                           "--samples", "1000", "--threads", "-1")
    assert code == 2 and "error:" in err and "threads" in err


def test_threads_only_on_commands_that_read_it(capsys):
    # only the Monte Carlo oracle reads --threads; the other commands refuse
    # it instead of silently accepting any value
    for argv in (["tables"],
                 ["expand", "--spec", "A:2", "--degrees", "3"],
                 ["matchings", "--size", "4", "--list"],
                 ["check", "sign", "--spec", "A:2", "--centers", "auto:1"],
                 ["check", "y-neg", "--rank", "3", "--max-degree", "8"],
                 ["check", "t-pos", "--max-degree", "8"],
                 ["check", "lemma51", "--rank", "3", "--degree", "8"],
                 ["check", "schur", "--rank", "3", "--degree", "8"]):
        code, _, err = run_cli(capsys, *argv, "--threads", "-5")
        assert code == 2 and "--threads" in err, argv
    argv = ["oracle", "--spec", "A:2", "--center", "0,0,0", "--threads", "2"]
    assert build_parser().parse_args(argv).threads == 2


def test_version_names_the_fold_engine(capsys):
    # benchmark records compare runs only when the engine names agree
    import coxpizza

    assert coxpizza.KERNEL_IMPLEMENTATION == "pure"
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out.strip() == f"coxpizza {coxpizza.__version__} (kernel: pure)"


def test_check_sign_without_interior_centers_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "sign", "--spec", "D:7", "--centers", "auto:3")
    assert code == 2 and "error:" in err and "margin" in err


@pytest.mark.parametrize("argv,message", [
    (("check", "sign", "--spec", "D:5", "--centers", "auto:0"), "no centers"),
    (("check", "sign", "--spec", "D:5", "--centers", "auto:-3"), "no centers"),
    (("check", "sign", "--spec", "D:5", "--centers", ";"), "no centers"),
    (("check", "y-neg", "--rank", "5", "--max-degree", "10"), "below the lowest nonzero degree 20"),
    (("check", "t-pos", "--max-degree", "4"), "below the first degree 6"),
], ids=["sign-auto0", "sign-auto-negative", "sign-empty-list", "y-neg-below-base", "t-pos-below-6"])
def test_check_without_anything_to_probe_is_a_usage_error(capsys, argv, message):
    # a check that probes nothing must not report "consistent"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err and message in err


@pytest.mark.parametrize("argv", [
    ("check", "sign", "--spec", "A:2", "--centers", "0.1,0.2,0.3"),
    ("check", "sign", "--spec", "A:2", "--centers", "0.1,0.2,-0.3;0.1,0.2,0.3", "--samples", "1000"),
    ("oracle", "--spec", "A:2", "--center", "0.1,0.2,0.3", "--method", "sum2s"),
    ("oracle", "--spec", "A:2", "--center", "0.1,0.2,0.3", "--method", "mc", "--samples", "1000"),
], ids=["sign", "sign-mc", "oracle-sum2s", "oracle-mc"])
def test_type_a_center_off_the_hyperplane_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error: type A centers must satisfy sum(a) = 0" in err


def test_check_sign_refuses_negative_samples(capsys):
    code, out, err = run_cli(capsys, "check", "sign", "--spec", "A:2", "--centers",
                             "0.1,0.2,-0.3", "--samples", "-1")
    assert code == 2 and out == "" and "error: samples must be >= 0, got -1" in err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("coxpizza ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
