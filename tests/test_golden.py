"""The reference table rows ship as golden report files; the reports that
`expand` writes (expansion_report, from the dominant coefficients) must
reproduce them byte-for-byte (up to JSON parsing).  The reports built from
the full folds are compared with these in the determinism criterion of
test_acceptance."""

import json
from pathlib import Path

import pytest

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
