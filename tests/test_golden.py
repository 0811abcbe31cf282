"""The reference table rows ship as golden report files; the reports that
`expand` writes (expansion_report, from the dominant coefficients) must
reproduce them byte-for-byte (up to JSON parsing).  The reports built from
the full folds are compared with these in the determinism criterion of
test_acceptance."""

import hashlib
import json
from pathlib import Path

import pytest

from coxpizza.cli import main
from coxpizza.rootsys import make_spec
from coxpizza.taylor import expansion_report

GOLDEN_DIR = Path(__file__).parent / "golden"
ROWS = [("A", 2), ("A", 3), ("A", 6), ("A", 7), ("D", 3), ("D", 5)]


@pytest.mark.parametrize("family,rank", ROWS, ids=[f"{f}{r}" for f, r in ROWS])
def test_report_matches_golden_file(family, rank):
    path = GOLDEN_DIR / f"{family}_{rank}.json"
    expected = json.loads(path.read_text())
    spec = make_spec(family, rank)
    phi = spec.positive_root_count
    got = expansion_report(spec, (phi, phi + 2)).to_json_dict()
    assert got == expected


# sha256 of `expand --format json` past the table degrees, where the type A
# reduction and the Schur expansion see their largest inputs (A:3 d40 has
# 7,770 quotient terms); the same values as the benchmark's deep-expand pins.
DEEP_DIGESTS = {
    ("A", 6, (25,)): "688ff589f906bdd237e5a42a18e6df66ff2e7cb61b50714eefcf5a6fe2254a07",
    ("A", 3, (36, 40)): "fc84d0685a174d0e2238dbae799bfa09c5a7076e881e2eeff9524062c7a75127",
    ("D", 5, (28, 30)): "8abca70677e5dd5384c90253799f5e5db3830c44bf38bee9a7d536d0c1974971",
}


@pytest.mark.parametrize("family,rank,degrees", list(DEEP_DIGESTS),
                         ids=[f"{f}{r}_d{'_'.join(map(str, ds))}" for f, r, ds in DEEP_DIGESTS])
def test_deep_expansion_report_digest(family, rank, degrees):
    report = expansion_report(make_spec(family, rank), degrees)
    text = json.dumps(report.to_json_dict(), indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEEP_DIGESTS[family, rank, degrees]


# sha256 of `check sign --format json` for the two README commands, with the
# run time removed: the centers, verdict and notes as printed, taken before
# the sign checks chose their degree caps from the tail bound.
SIGN_DIGESTS = {
    "D:5": "23669984aeb8c073804eb0a89a264ef84a3311e55fa323e0e544ee72c4ed37d2",
    "A:7": "ec406d458567de05a3cfaa3711ada1735ddfe4426a09368470a17370b89c5b96",
}


@pytest.mark.parametrize("spec", list(SIGN_DIGESTS))
def test_readme_sign_check_report_digest(capsys, spec):
    argv = ["check", "sign", "--spec", spec, "--centers", "auto:10", "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    doc.pop("runtime_ms")
    text = json.dumps(doc, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SIGN_DIGESTS[spec]
