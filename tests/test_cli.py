import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coxpizza import cli, conjectures
from coxpizza.cli import build_parser, main
from coxpizza.oracle import McEstimate
from coxpizza.rootsys import chamber_sign, make_spec
from reference import table_cells


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


def test_matchings_offers_text_output_only(capsys):
    # the enumeration has no JSON form: asking for one is a usage error, not ignored
    code, out, err = run_cli(capsys, "matchings", "--size", "4", "--list", "--format", "json")
    assert code == 2 and out == "" and "invalid choice: 'json'" in err


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


@pytest.mark.parametrize("argv", [("--which", "all"), ("--which", "D", "--extended")],
                         ids=["all", "D-extended"])
def test_tables_cells_match_the_quotient_route(capsys, argv):
    # tables reads c_() and (c_(2) - c_(1,1))/2 or c_(1); the reference reads
    # the constant and the power-sum multiple off the expanded, reduced quotients
    code, out, _ = run_cli(capsys, "tables", *argv, "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        lead, second = table_cells(row["family"], row["rank"])
        assert row["computed_lead"] == {"num": lead.numerator, "den": lead.denominator}, row
        assert row["computed_second_coeff"] == {"num": second.numerator,
                                                "den": second.denominator}, row


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
    # the degree-61 quotient of A_6 expands over C(46, 6) monomials
    code, out, err = run_cli(capsys, "expand", "--spec", "A:6", "--degrees", "61")
    assert code == 2 and out == "" and "refused" in err and "exceed the cap" in err


def test_expand_accepts_frontier_job_with_progress():
    # the next open type A case runs to completion
    proc = subprocess.run(
        [sys.executable, "-m", "coxpizza.cli", "expand", "--spec", "A:10", "--degrees", "55"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "degree 55: " in proc.stdout


EXACT_COMMANDS = [
    ["tables", "--which", "A"],
    ["expand", "--spec", "D:5", "--degrees", "20,22"],
    ["check", "t-pos", "--max-degree", "40"],
    ["check", "y-neg", "--rank", "5", "--max-degree", "24"],
    ["check", "schur", "--rank", "3", "--degree", "8"],
    ["check", "lemma51", "--rank", "5", "--degree", "20"],
    ["check", "sign", "--spec", "D:3", "--centers", "0.1,0.2,0.05"],
    ["matchings", "--size", "4", "--sign-sum"],
]
IMPORT_PATH_PROBE = """
import json, sys
from coxpizza.cli import main
assert "numpy" not in sys.modules, "import coxpizza.cli"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert main(["oracle", "--spec", "A:2", "--center", "0,0,0", "--samples", "1000"]) == 0
assert "numpy" in sys.modules, "oracle --method mc"
"""


def test_exact_commands_do_not_load_numpy():
    # only the float routes import numpy; a fresh interpreter shows what a
    # command loads, and the closing Monte Carlo run shows the probe can fail
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_PROBE, json.dumps(EXACT_COMMANDS)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("spec,degrees", [
    ("A:10", "55,57"), ("A:11", "66,68"), ("A:14", "105,107"), ("A:15", "120,122"),
    ("D:9", "72,74"), ("D:11", "110,112")])
def test_expand_admits_the_frontier_table_cells(capsys, spec, degrees):
    # the lead and second cells past the matchings' reach: one Pfaffian each
    code, out, err = run_cli(capsys, "expand", "--spec", spec, "--degrees", degrees)
    assert code == 0 and err == ""
    assert [f"degree {d}: " in out for d in degrees.split(",")] == [True, True]


@pytest.mark.parametrize("method", ["series", "mc"])
def test_oracle_refuses_a_center_of_the_wrong_dimension(capsys, method):
    code, out, err = run_cli(capsys, "oracle", "--spec", "A1k:2@3", "--center",
                             "0.1,0.2,0.3,0.4,0.5", "--method", method, "--samples", "1000")
    assert code == 2 and out == ""
    assert "error: center has dimension 5, expected 3" in err


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


def test_check_tpos_refuses_a_max_degree_past_the_work_cap(capsys, monkeypatch):
    # m = 368: (m+1)^3 edge-table steps exceed MAX_QUOTIENT_WORK, so no table is built
    def refuse(pair_forms, q):
        raise AssertionError("an edge table was built")
    monkeypatch.setattr(conjectures, "_edge_table", refuse)
    code, out, err = run_cli(capsys, "check", "t-pos", "--max-degree", "738")
    assert code == 2 and out == ""
    assert "error: max degree 738: about 50243409 steps for the edge tables exceed the cap" in err


def test_check_tpos_admits_the_last_degree_under_the_work_cap(monkeypatch):
    # m = 367: 368^3 steps are within MAX_QUOTIENT_WORK; stop at the first table
    class Stop(Exception):
        pass

    def stop(pair_forms, q):
        raise Stop
    monkeypatch.setattr(conjectures, "_edge_table", stop)
    with pytest.raises(Stop):
        main(["check", "t-pos", "--max-degree", "736"])


@pytest.mark.parametrize("max_degree", ["40", "60", "168"])
def test_check_tpos_admits_the_readme_degrees(capsys, max_degree):
    code, out, _ = run_cli(capsys, "check", "t-pos", "--max-degree", max_degree)
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


def test_reconstruction_mismatch_exits_one_without_a_traceback(capsys, monkeypatch):
    real = conjectures.fold_at
    monkeypatch.setattr(conjectures, "fold_at", lambda spec, point, degree_cap: {
        k: v + 1 for k, v in real(spec, point, degree_cap).items()})
    code, out, err = run_cli(capsys, "check", "schur", "--rank", "3", "--degree", "8")
    assert code == 1 and out == ""
    assert err.startswith("error: rank 3 degree 8: alternant reconstruction does not match the fold")
    assert "Traceback" not in err


def test_oracle_disagreement_exits_one_without_a_traceback(capsys, monkeypatch):
    # a type D fold has the sign opposite to the chamber sign; Monte Carlo is
    # planted with the chamber sign and no error
    center = (0.3, 0.2, 0.05)
    planted = McEstimate(chamber_sign(make_spec("D", 3), center), 0.0, 20000, 0)
    monkeypatch.setattr(conjectures, "mc_pizza", lambda *args: planted)
    code, out, err = run_cli(capsys, "check", "sign", "--spec", "D:3", "--centers",
                             "0.3,0.2,0.05", "--samples", "20000")
    assert code == 1 and out == ""
    assert err.startswith("error: center (0.3, 0.2, 0.05): series fold gives")
    assert "Traceback" not in err


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


def test_check_sign_refuses_other_families_before_drawing_centers(monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("centers drawn for a refused spec")

    monkeypatch.setattr(cli, "random_interior_centers", draw)
    code, out, err = run_cli(capsys, "check", "sign", "--spec", "I2:5", "--centers", "auto:2")
    assert code == 2 and out == "" and "sign checks apply to A and D arrangements" in err


def test_csv_only_on_expand(capsys):
    code, out, err = run_cli(capsys, "tables", "--which", "A", "--format", "csv")
    assert code == 2 and out == "" and "invalid choice: 'csv'" in err


def test_check_sign_without_interior_centers_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "sign", "--spec", "D:7", "--centers", "auto:3")
    assert code == 2 and "error:" in err and "margin" in err


@pytest.mark.parametrize("argv,message", [
    (("check", "sign", "--spec", "D:5", "--centers", "auto:0"), "no centers"),
    (("check", "sign", "--spec", "D:5", "--centers", "auto:-3"), "no centers"),
    (("check", "sign", "--spec", "D:5", "--centers", ";"), "no centers"),
    (("check", "y-neg", "--rank", "5", "--max-degree", "10"), "below the lowest nonzero degree 20"),
    (("check", "t-pos", "--max-degree", "4"), "below the first degree 6"),
    (("check", "lemma51", "--rank", "5", "--degree", "19"), "below the lowest nonzero degree 20"),
    (("check", "lemma51", "--rank", "5", "--degree", "10"), "below the lowest nonzero degree 20"),
    (("check", "lemma51", "--rank", "3", "--degree", "4"), "below the lowest nonzero degree 6"),
], ids=["sign-auto0", "sign-auto-negative", "sign-empty-list", "y-neg-below-base", "t-pos-below-6",
        "lemma51-odd-below-base", "lemma51-below-base", "lemma51-d3-below-base"])
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
