import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coxpizza import conjectures, matchings, oracle, taylor
from coxpizza.cli import build_parser, main
from coxpizza.oracle import McEstimate
from coxpizza.polyring import Poly
from coxpizza.rootsys import chamber_sign, make_spec, parse_spec
from reference import expand_output_by_polys, table_cells


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


@pytest.mark.parametrize("mode", ["--list", "--sign-sum"])
def test_matchings_refuses_a_size_past_the_cap_before_enumerating(capsys, monkeypatch, mode):
    # 29!! matchings at about 10 us each would run for two thousand years;
    # sizes 15 and 16 (2,027,025 each) are refused, size 14 (135,135) runs
    def walk(*args):
        raise AssertionError("matchings enumerated")
    monkeypatch.setattr(matchings, "enumerate_matchings", walk)
    monkeypatch.setattr(matchings, "sign_sum", walk)
    for size, count in (("30", 6190283353629375), ("16", 2027025), ("15", 2027025)):
        code, out, err = run_cli(capsys, "matchings", "--size", size, mode)
        assert code == 2 and out == ""
        assert err == f"error: size {size}: {count} matchings exceed the cap of 1000000\n"
    monkeypatch.setattr(matchings, "sign_sum", lambda r: f"walked {r}")
    monkeypatch.setattr(matchings, "enumerate_matchings", lambda r: iter(()))
    code, out, _ = run_cli(capsys, "matchings", "--size", "14", mode)
    assert code == 0 and out == ("walked 14\n" if mode == "--sign-sum" else "\n")


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


NO_POLY_CELLS = [("A:2", "3,5"), ("A:3", "36,40"), ("A:6", "25"), ("D:5", "20,22,28,30")]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_expand_builds_no_poly(capsys, monkeypatch, fmt):
    # expand writes every format from the sorted-monomial coefficients; the
    # expanded quotients, built afterwards, render the same bytes
    def built(*args, **kwargs):
        raise AssertionError("expand built a Poly")

    outputs = []
    with monkeypatch.context() as patched:
        patched.setattr(Poly, "__init__", built)
        patched.setattr(Poly, "_canonical", staticmethod(built))
        patched.setattr(taylor, "spread_monomials", built)
        for spec, degrees in NO_POLY_CELLS:
            code, out, _ = run_cli(capsys, "expand", "--spec", spec, "--degrees", degrees,
                                   "--format", fmt)
            assert code == 0
            outputs.append(out)
    for (spec, degrees), out in zip(NO_POLY_CELLS, outputs):
        report = taylor.expansion_report(parse_spec(spec), [int(d) for d in degrees.split(",")])
        assert out == expand_output_by_polys(report, fmt) + "\n", (spec, degrees)


def test_expand_refuses_over_cap(capsys):
    # the degree-61 quotient of A_6 expands over C(46, 6) monomials
    code, out, err = run_cli(capsys, "expand", "--spec", "A:6", "--degrees", "61")
    assert code == 2 and out == ""
    assert err == ("error: degree 61: about 936708900 steps for the edge tables, Pfaffians and "
                   "Schur expansion exceed the cap of 50000000\n")


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
    ["oracle", "--spec", "A1k:2@3", "--center", "0.3,0.2,0", "--method", "series"],
    ["oracle", "--spec", "D:3", "--center", "0.25,0.1,0.03", "--method", "sum2s"],
]
# Runs the commands of argv[1] in turn in one fresh interpreter and prints, as
# its last line, the exit codes and the package modules (and numpy) loaded
# after the import of coxpizza.cli and after each command.
IMPORT_PATH_PROBE = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name == "numpy" or name.startswith("coxpizza"))
from coxpizza.cli import main
report = {"import": loaded(), "codes": [], "loaded": []}
for argv in json.loads(sys.argv[1]):
    report["codes"].append(main(argv))
    report["loaded"].append(loaded())
print(json.dumps(report))
"""
ENUMERATION = ["matchings", "rootsys"]
QUOTIENTS = ENUMERATION + ["polyring", "taylor"]


def probe_imports(commands):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_numpy():
    # only the float routes import numpy; a fresh interpreter shows what a
    # command loads, and the closing Monte Carlo run shows the probe can fail
    mc = ["oracle", "--spec", "A:2", "--center", "0,0,0", "--samples", "1000"]
    report = probe_imports(EXACT_COMMANDS + [mc])
    assert report["codes"] == [0] * (len(EXACT_COMMANDS) + 1)
    assert "numpy" not in report["import"]
    numpy = ["numpy" in names for names in report["loaded"]]
    assert numpy == [False] * len(EXACT_COMMANDS) + [True]


@pytest.mark.parametrize("argv,code,engine", [
    (["--version"], 0, []),
    (["--help"], 0, []),
    (["tables", "--which", "B"], 2, []),
    (["matchings", "--size", "4", "--list"], 0, ENUMERATION),
    (["matchings", "--size", "30", "--sign-sum"], 2, ENUMERATION),
    (["tables", "--which", "D"], 0, QUOTIENTS),
    (["expand", "--spec", "A:6", "--degrees", "61"], 2, QUOTIENTS),
    (["oracle", "--spec", "A:2", "--center", "0.1,0.1,-0.2", "--samples", "1000"], 0,
     ENUMERATION + ["oracle"]),
    (["oracle", "--spec", "D:3", "--center", "0.25,0.1,0.03", "--method", "sum2s"], 0,
     ENUMERATION + ["oracle"]),
    (["check", "y-neg", "--rank", "3", "--max-degree", "8"], 0,
     QUOTIENTS + ["conjectures", "oracle"]),
], ids=["version", "help", "usage-error", "matchings", "matchings-refused", "tables",
        "expand-refused", "oracle-mc", "oracle-sum2s", "check"])
def test_each_command_loads_only_its_engine(argv, code, engine):
    # without a bytecode cache a process compiles every module it imports:
    # importing the CLI loads no engine module, and a command loads the ones it calls
    report = probe_imports([argv])
    assert report["import"] == ["coxpizza", "coxpizza.cli"]
    assert report["codes"] == [code]
    loaded = [name for name in report["loaded"][0] if name.startswith("coxpizza.")]
    assert loaded == sorted(["coxpizza.cli"] + [f"coxpizza.{name}" for name in engine])


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


def test_oracle_mc_refuses_a_ball_inside_the_tolerance_slab():
    # every draw would be resampled: a ball inside one slab is refused
    # before sampling, a ball inside the union of the three slabs at the
    # A_2 origin after 20,000 resampled draws, not a stall
    for center, radius, message in (
            ("0.1,0.1,-0.2", "1e-13",
             "the ball lies within 1e-12 of a hyperplane: every draw would be resampled"),
            ("0,0,0", "1.5e-12",
             "20000 draws in a row were resampled: the ball lies within 1e-12 of the hyperplanes")):
        proc = subprocess.run(
            [sys.executable, "-m", "coxpizza.cli", "oracle", "--spec", "A:2", "--center", center,
             "--radius", radius, "--samples", "10"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {message}"]


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


@pytest.mark.parametrize("argv", [
    ["--spec", "A1k:2@3", "--center", "0.25,0.125,0", "--method", "series"],
    ["--spec", "D:3", "--center", "0.25,0.125,0.0625", "--method", "sum2s"],
], ids=["series", "sum2s"])
def test_oracle_series_routes_refuse_a_cap_above_400(capsys, argv):
    # the sign checks' largest cap; the exact series at 400 takes a fraction of a second
    code, out, err = run_cli(capsys, "oracle", *argv, "--degree-cap", "401")
    assert (code, out, err) == (2, "", "error: degree_cap 401 above the largest admitted, 400\n")
    code, out, err = run_cli(capsys, "oracle", *argv, "--degree-cap", "400")
    assert code == 0 and err == "" and len(out.splitlines()) == 1


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


@pytest.mark.parametrize("argv,verdict", [
    (["y-neg", "--rank", "7", "--max-degree", "100"], "yNeg: consistent"),
    (["lemma51", "--rank", "7", "--degree", "100"], "lemma51: consistent"),
], ids=["y-neg-D7-d100", "lemma51-D7-d100"])
def test_check_audits_are_not_charged_for_a_schur_expansion(capsys, argv, verdict):
    # only expand expands the quotients in monomials, so only expand's cap
    # counts that work: these audits run well under the cap
    code, out, _ = run_cli(capsys, "check", *argv)
    assert code == 0 and out.startswith(verdict)


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


@pytest.mark.parametrize("name,argv,verified", [
    ("check_sign_A", ["sign", "--spec", "A:7", "--centers", "0"], True),
    ("check_sign_D", ["sign", "--spec", "D:8", "--centers", "0"], False),
    ("check_y_negativity", ["y-neg", "--rank", "5", "--max-degree", "20"], True),
    ("check_y_negativity", ["y-neg", "--rank", "6", "--max-degree", "20"], False),
    ("check_t_positivity", ["t-pos", "--max-degree", "40"], True),
    ("check_t_positivity", ["t-pos", "--max-degree", "41"], False),
    ("check_lemma51", ["lemma51", "--rank", "3", "--degree", "8"], True),
    ("check_lemma51", ["lemma51", "--rank", "99", "--degree", "9702"], True),
    ("schur_reconstruct", ["schur", "--rank", "3", "--degree", "8"], True),
    ("schur_reconstruct", ["schur", "--rank", "99", "--degree", "9702"], True),
], ids=["sign-rank7", "sign-rank8", "y-neg-rank5", "y-neg-rank6", "t-pos-d40", "t-pos-d41",
        "lemma51-small", "lemma51-large", "schur-small", "schur-large"])
def test_check_exit_codes_follow_each_commands_verified_range(capsys, monkeypatch, name, argv,
                                                              verified):
    # a violation exits 1 under --mode test, 3 under explore, and under auto
    # 1 inside the command's verified range and 3 beyond; lemma51 and schur
    # take no --mode and are always verified
    violated = conjectures.ConjectureReport("probe", {}, "violated", [{"planted": 1}])
    monkeypatch.setattr(conjectures, name, lambda *args: violated)
    modes = [[], ["--mode", "auto"], ["--mode", "test"], ["--mode", "explore"]]
    expected = [1 if verified else 3, 1 if verified else 3, 1, 3]
    if name in ("check_lemma51", "schur_reconstruct"):
        modes, expected = modes[:1], expected[:1]
    for mode, code in zip(modes, expected):
        assert run_cli(capsys, "check", *argv, *mode) == (
            code, 'probe: violated\n  witness: {"planted": 1}\n', ""), mode


A18 = ",".join(str((i - 9) / 256) for i in range(19))
D21 = ",".join(str((i + 1) / 256) for i in range(21))
BALL = ["oracle", "--spec", "A:2", "--center", "0.1,0.1,-0.2", "--samples", "1000"]
# inputs the CLI refuses before the work they ask for: (argv, the start of the one error
# line); {tmp} is a temporary directory
REFUSED_COMMANDS = {
    "y-neg-D3": (["check", "y-neg", "--rank", "3", "--max-degree", "738"], "degree 738: about"),
    "y-neg-D5": (["check", "y-neg", "--rank", "5", "--max-degree", "400"], "degree 400: about"),
    "y-neg-D7": (["check", "y-neg", "--rank", "7", "--max-degree", "200"], "degree 200: about"),
    "tails-oracle-A18": (["oracle", "--spec", "A:18", f"--center={A18}", "--method", "sum2s"],
                         "654729075 matchings exceed the tail bound's cap of 10000000"),
    "tails-sign-A18": (["check", "sign", "--spec", "A:18", f"--centers={A18}"],
                       "654729075 matchings exceed the tail bound's cap of 10000000"),
    "tails-oracle-D21": (["oracle", "--spec", "D:21", f"--center={D21}", "--method", "sum2s"],
                         "13749310575 matchings exceed the tail bound's cap of 10000000"),
    "degrees-empty": (["expand", "--spec", "A:3", "--degrees", "3,,5"],
                      "--degrees '3,,5': '' is not an integer"),
    "centers-auto-count": (["check", "sign", "--spec", "D:3", "--centers", "auto:x"],
                           "--centers 'auto:x': 'x' is not an integer"),
    "center-text": (BALL[:4] + ["0.1,a,-0.2"] + BALL[5:], "--center '0.1,a,-0.2': 'a' is not a number"),
    "centers-text": (["check", "sign", "--spec", "D:3", "--centers", "0.1,0.2,0.05;0.1,a,0.2"],
                     "--centers '0.1,0.2,0.05;0.1,a,0.2': 'a' is not a number"),
    "radius-nan": (BALL + ["--radius", "nan"], "radius must be positive and finite, got nan"),
    "radius-inf": (BALL + ["--radius", "inf"], "radius must be positive and finite, got inf"),
    "center-nan": (BALL[:4] + ["nan,0.1,-0.2"] + BALL[5:],
                   "center coordinates must be finite, got [nan, 0.1, -0.2]"),
    "sign-center-nan": (["check", "sign", "--spec", "D:3", "--centers", "nan,0.1,0.2"],
                        "center coordinates must be finite, got [nan, 0.1, 0.2]"),
    "sign-center-inf": (["check", "sign", "--spec", "D:3", "--centers", "inf,0.1,0.2"],
                        "center coordinates must be finite, got [inf, 0.1, 0.2]"),
    "radius-overflow-mc": (BALL + ["--radius", "1e200"],
                           "radius 1e+200: the volume of its ball in dimension 2 is not a "
                           "positive finite float"),
    "radius-overflow-series": (["oracle", "--spec", "A1k:2@3", "--center", "0.1,0.1,0",
                                "--method", "series", "--radius", "1e200"],
                               "radius 1e+200: the volume of its ball in dimension 3 is not a "
                               "positive finite float"),
    "radius-overflow-sum2s": (BALL[:5] + ["--method", "sum2s", "--radius", "1e200"],
                              "radius 1e+200: the volume of its ball in dimension 2 is not a "
                              "positive finite float"),
    "radius-underflow-mc": (["oracle", "--spec", "D:3", "--center", "0.1,0.2,0.05",
                             "--radius", "1e-200", "--samples", "100"],
                            "radius 1e-200: the volume of its ball in dimension 3 is not a "
                            "positive finite float"),
    "radius-underflow-series": (["oracle", "--spec", "A1k:2@3", "--center", "0.3,0.2,0",
                                 "--method", "series", "--radius", "1e-200"],
                                "radius 1e-200: the volume of its ball in dimension 3 is not a "
                                "positive finite float"),
    "radius-underflow-sum2s": (["oracle", "--spec", "A:2", "--center", "0,0,0", "--method", "sum2s",
                                "--radius", "1e-200"],
                               "radius 1e-200: the volume of its ball in dimension 2 is not a "
                               "positive finite float"),
    "series-divergent": (["oracle", "--spec", "A1k:2@3", "--center", "1e200,0.2,0",
                          "--method", "series"],
                         "the squared coordinates sum to 1 or more: outside the open "
                         "convergence region"),
    "sum2s-family": (["oracle", "--spec", "A1k:2@3", "--center", "0.1,0.1,0", "--method", "sum2s"],
                     "exact fold applies to families A and D, not A1k"),
    "series-family": (["oracle", "--spec", "D:3", "--center", "0.1,0.2,0.3", "--method", "series"],
                      "--method series applies to A1k arrangements only, not D:3"),
    "sign-family": (["check", "sign", "--spec", "I2:5", "--centers", "auto:2"],
                    "sign checks apply to A and D arrangements, not I2:5"),
    "threads-sum2s": (BALL[:5] + ["--method", "sum2s", "--threads", "-3"],
                      "threads must be >= 0, got -3"),
    "seed-mc": (["oracle", "--spec", "A:2", "--center", "0.2,-0.1,-0.1", "--samples", "3",
                 "--seed", "-1"], "seed must be non-negative, got -1"),
    "seed-sign": (["check", "sign", "--spec", "A:2", "--centers", "auto:1", "--seed", "-5"],
                  "seed must be non-negative, got -5"),
    "matchings": (["matchings", "--size", "30", "--sign-sum"], "size 30: 6190283353629375 matchings"),
    "expand": (["expand", "--spec", "A:6", "--degrees", "61"], "degree 61: about 936708900 steps"),
    "out": (["tables", "--which", "D", "--out", "{tmp}/missing/t.txt"],
            "[Errno 2] No such file or directory: '{tmp}/missing/t.txt'"),
}


@pytest.mark.parametrize("argv,message", REFUSED_COMMANDS.values(), ids=REFUSED_COMMANDS.keys())
def test_refused_commands_exit_two_with_one_error_line(tmp_path, argv, message):
    # each is refused before its work: in a fresh process, well within the timeout
    proc = subprocess.run([sys.executable, "-m", "coxpizza.cli",
                           *(arg.format(tmp=tmp_path) for arg in argv)],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message.format(tmp=tmp_path)}"), lines


def test_threads_resolved_once(monkeypatch, capsys):
    seen = []
    real_mc = oracle.mc_pizza

    def capture(*args, threads):
        seen.append(threads)
        return real_mc(*args, threads=threads)

    monkeypatch.setattr(oracle, "mc_pizza", capture)
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
    real = conjectures.fold_mod
    monkeypatch.setattr(conjectures, "fold_mod", lambda spec, point, degree: (
        real(spec, point, degree) + 1) % conjectures.MODULUS)
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

    monkeypatch.setattr(oracle, "random_interior_centers", draw)
    code, out, err = run_cli(capsys, "check", "sign", "--spec", "I2:5", "--centers", "auto:2")
    assert code == 2 and out == "" and "sign checks apply to A and D arrangements" in err


def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path):
    # the command runs, then the report cannot be written: one error line, exit 2
    path = tmp_path / "missing" / "t.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "coxpizza.cli", "tables", "--which", "D", "--out", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: [Errno 2] No such file or directory: '{path}'"]
    assert not path.parent.exists()


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


def test_check_sign_at_the_origin_only_is_inconclusive(capsys):
    # every center skipped as degenerate: nothing was probed, so not "consistent"
    code, out, _ = run_cli(capsys, "check", "sign", "--spec", "D:3", "--centers", "0,0,0")
    assert code == 0
    assert out.splitlines() == [
        "signD: inconclusive",
        "  note: center 0: at the origin, quantity vanishes (degenerate, skipped)"]


@pytest.mark.parametrize("rank", ["2", "4"])
def test_check_y_neg_refuses_a_rank_as_check_schur_does(capsys, rank):
    yneg = run_cli(capsys, "check", "y-neg", "--rank", rank, "--max-degree", "20")
    schur = run_cli(capsys, "check", "schur", "--rank", rank, "--degree", "20")
    assert yneg == schur
    assert yneg[0] == 2 and yneg[1] == "" and yneg[2].startswith("error: type D")


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
