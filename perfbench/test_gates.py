"""Each verification gate accepts genuine output and rejects a corrupted one:
a changed coefficient, a flipped sign, a wrong verdict.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from coxpizza import cli, conjectures, taylor  # noqa: E402
from coxpizza.rootsys import make_spec  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402


def _bump(terms, delta=Fraction(1, 7)):
    """Copy of ``terms`` with one coefficient changed."""
    out = dict(terms)
    mono = sorted(out)[len(out) // 2]
    out[mono] += delta
    return out


def _flip(terms):
    """Copy of ``terms`` with one coefficient's sign flipped."""
    out = dict(terms)
    mono = sorted(out)[0]
    out[mono] = -out[mono]
    return out


@pytest.fixture(scope="module")
def rng():
    return random.Random(20240)


# -- tables -----------------------------------------------------------------


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 3)])
def test_table_gate(rng, family, rank):
    spec = make_spec(family, rank)
    phi = spec.positive_root_count
    report = taylor.expansion_report(spec, [phi, phi + 2])
    golden = json.loads((ROOT / "tests" / "golden" / f"{family}_{rank}.json").read_text())
    lead, second = (e.quotient.terms for e in report.entries)
    gold_lead, gold_second = cli.GOLDEN_ROWS[(family, rank)]
    points = gates.seeded_points(rng, spec.ambient_dim, 3, sum_zero=family == "A")
    text = json.dumps(report.to_json_dict(), indent=2)

    def gate(report_json=None, lead_terms=lead, second_terms=second):
        return gates.table_gate(report_json or json.loads(text), golden, lead_terms,
                                second_terms, gold_lead, gold_second, points)

    assert gate() == []
    assert gate(lead_terms=_flip(lead))
    assert gate(second_terms=_bump(second))
    assert gate(second_terms=_flip(second))
    corrupted = json.loads(text)
    corrupted["entries"][1]["quotient_terms"][0]["num"] += 1
    assert gate(report_json=corrupted)


# -- deep expand ------------------------------------------------------------


@pytest.mark.parametrize("family,rank,degree", [("A", 3, 10), ("D", 3, 10)])
def test_fold_identity_gate(rng, family, rank, degree):
    spec = make_spec(family, rank)
    fold = taylor.z_poly(spec, degree).terms
    quotient = taylor.quotient_from_fold(spec, degree, taylor.z_poly(spec, degree)).terms
    points = gates.seeded_points(rng, spec.ambient_dim, 3, sum_zero=False)

    def gate(q=quotient, z=fold):
        return gates.fold_identity_gate(degree, spec.positive_root_count, q, z,
                                        family == "D", points)

    assert gate() == []
    assert gate(q=_bump(quotient))
    assert gate(q=_flip(quotient))
    assert gate(z=_bump(fold, Fraction(1)))


def test_relation_gate(rng):
    spec = make_spec("A", 3)
    quotient = taylor.quotient(spec, 10)
    reduced = taylor.reduce_mod_relation(quotient, spec).terms
    points = gates.seeded_points(rng, spec.ambient_dim, 3, sum_zero=True)
    assert gates.relation_gate(10, quotient.terms, reduced, points) == []
    assert gates.relation_gate(10, quotient.terms, _bump(reduced), points)
    assert gates.relation_gate(10, quotient.terms, _flip(reduced), points)
    with pytest.raises(ValueError):
        gates.relation_gate(10, quotient.terms, reduced, [(1, 2, 3, 4)])


def test_digest_gate_and_pinned_digests():
    text = json.dumps({"num": 3}, indent=2)
    assert gates.digest_gate("x", text, gates.digest(text)) == []
    assert gates.digest_gate("x", text.replace("3", "-3"), gates.digest(text))
    spec = make_spec("D", 5)
    report = taylor.expansion_report(spec, [28, 30])
    pinned = workloads.DEEP_DIGESTS["D:5"]
    assert gates.digest_gate("D:5", json.dumps(report.to_json_dict(), indent=2), pinned) == []


# -- conjecture checks and oracles ------------------------------------------


def test_verdict_gate():
    report = conjectures.check_lemma51(5, 20).to_json_dict()
    assert gates.verdict_gate(report, "lemma51", {"rank": 5, "degree": 20}) == []
    assert gates.verdict_gate(dict(report, verdict="violated"), "lemma51")
    assert gates.verdict_gate(dict(report, verdict="inconclusive"), "lemma51")
    assert gates.verdict_gate(dict(report, witnesses=[{"claim": "odd_exponent"}]), "lemma51")
    assert gates.verdict_gate(report, "yNeg")
    assert gates.verdict_gate(report, "lemma51", {"degree": 22})


def test_sign_report_gate_checks_centers():
    centers = workloads.interior_centers("D", 3, 2, random.Random(3))
    report = conjectures.check_sign_D(3, centers).to_json_dict()
    params = {"centers": [list(c) for c in centers]}
    assert gates.verdict_gate(json.loads(json.dumps(report)), "signD", params) == []
    flipped = [[-x for x in c] for c in params["centers"]]
    assert gates.verdict_gate(report, "signD", {"centers": flipped})


def test_oracle_agreement_gate():
    assert gates.oracle_agreement_gate(0.010, 0.002, 0.012, 1e-9) == []
    assert gates.oracle_agreement_gate(0.010, 0.002, -0.010, 1e-9)
    assert gates.oracle_agreement_gate(0.010, 0.002, 0.0201, 0.0)
    assert gates.oracle_agreement_gate(float("nan"), 0.002, 0.01, 0.0)


def test_repeat_gate():
    same = {"a": "1", "b": "2"}
    assert gates.repeat_gate([same, dict(same)]) == []
    assert gates.repeat_gate([same]) == []
    assert gates.repeat_gate([same, {"a": "1", "b": "3"}, same]) == [(2, "b")]


def test_fingerprint_ignores_run_time_only():
    audits = workloads.Audits(0, ROOT)
    first, second = (conjectures.check_lemma51(5, 20) for _ in range(2))
    second.runtime_ms += 1.0
    prints = [audits.fingerprint("lemma51 D5 d20", (r, json.dumps(r.to_json_dict())))
              for r in (first, second)]
    assert prints[0] == prints[1]
    second.verdict = "violated"
    assert audits.fingerprint("lemma51 D5 d20", (second, "")) != prints[0]


def test_audit_check_rejects_wrong_verdict():
    audits = workloads.Audits(0, ROOT)
    report = conjectures.check_lemma51(5, 20)
    text = json.dumps(report.to_json_dict(), indent=2)
    assert audits.check({"lemma51 D5 d20": (report, text)}) == {"lemma51 D5 d20": []}
    bad = text.replace('"consistent"', '"violated"')
    assert audits.check({"lemma51 D5 d20": (report, bad)})["lemma51 D5 d20"]


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("family,rank", [("A", 6), ("D", 5)])
def test_interior_centers_are_seeded_and_inside_chambers(family, rank):
    first = workloads.interior_centers(family, rank, 4, random.Random(11))
    again = workloads.interior_centers(family, rank, 4, random.Random(11))
    other = workloads.interior_centers(family, rank, 4, random.Random(12))
    assert first == again and first != other
    for center in first:
        assert all(Fraction(x).denominator <= 256 for x in center)
        if family == "A":
            assert sum(Fraction(x) for x in center) == 0
        assert abs(sum(x * x for x in center) ** 0.5 - workloads.CENTER_NORM) < 0.02
