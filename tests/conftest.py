import pytest

from coxpizza.rootsys import make_spec
from coxpizza.taylor import (ExpansionReport, fold_parameters, quotient_from_fold,
                             reduce_mod_relation, z_poly)
from reference import report_entry

_acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        num, desc = marker.args
        passed, _ = _acceptance_results.get(num, (True, desc))
        _acceptance_results[num] = (passed and report.passed, desc)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        passed, desc = _acceptance_results[num]
        terminalreporter.write_line(f"ACCEPTANCE {num:>2} {'PASS' if passed else 'FAIL'} - {desc}")


class FoldCache:
    """Session-wide cache of full folds, the quotients divided out of them
    and table reports built from those (threads=1), shared by the acceptance
    tests so each fold is computed once per run."""

    def __init__(self):
        self.folds = {}
        self.quotients = {}

    def fold(self, family, rank, d):
        key = (family, rank, d)
        if key not in self.folds:
            self.folds[key] = z_poly(make_spec(family, rank), d, threads=1)
        return self.folds[key]

    def quotient(self, family, rank, d):
        key = (family, rank, d)
        if key not in self.quotients:
            spec = make_spec(family, rank)
            self.quotients[key] = quotient_from_fold(spec, d, self.fold(family, rank, d))
        return self.quotients[key]

    def report(self, family, rank):
        spec = make_spec(family, rank)
        phi = spec.positive_root_count
        geometry = fold_parameters(spec)
        entries = []
        for d in (phi, phi + 2):
            q = self.quotient(family, rank, d)
            reduced = reduce_mod_relation(q, spec) if family == "A" else None
            entries.append(report_entry(d, q, reduced, geometry.forms))
        return ExpansionReport(spec, geometry.k, phi, entries)


@pytest.fixture(scope="session")
def cache():
    return FoldCache()
