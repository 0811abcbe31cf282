"""The benchmark's workloads: seeded inputs, the jobs of one pass, and the
gates that verify what the jobs returned.

Every job calls the package's public API the way the ``coxpizza`` command
does and returns the result together with its serialized form.  Inputs that
depend on the seed (sign-check centers, Monte Carlo seeds, verification
points) are generated here from ``random.Random``; the package receives only
the generated values.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from coxpizza import cli, conjectures, oracle, taylor
from coxpizza.rootsys import make_spec

import gates
from spans import NullTracer


@dataclass
class Job:
    name: str
    run: Callable[[NullTracer], object]


def _serialize(tr: NullTracer, report) -> str:
    """The report as ``--format json`` writes it."""
    with tr.span("report.serialize"):
        text = json.dumps(report.to_json_dict(), indent=2)
    tr.count("report.bytes", len(text.encode("utf-8")))
    return text


def _check_report(tr: NullTracer, conjecture_id: str, call, *args):
    with tr.span("check." + conjecture_id):
        report = call(*args)
    return report, _serialize(tr, report)


class Workload:
    name = ""
    threads = 1
    # Seconds one pass took at the commit that introduced the benchmark, on
    # a 2-core x86-64 virtual machine with the pure kernel.  A run of S
    # seconds makes round(S / nominal_pass_s) passes, at least one, whatever
    # the speed of the code under test, so two commits are measured over the
    # same work.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, root: Path):
        pass

    @classmethod
    def pass_count(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.nominal_pass_s))

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def fingerprint(self, job: str, output) -> str:
        """Digest of a job's serialized output; a checker report's run time
        is left out, since it differs between passes."""
        result, text = output
        if isinstance(result, conjectures.ConjectureReport):
            payload = result.to_json_dict()
            payload.pop("runtime_ms")
            text = json.dumps(payload, sort_keys=True)
        return gates.digest(text)

    def prepare_checks(self, tr: NullTracer) -> None:
        """Untimed work the gates need (reference results)."""

    def check(self, outputs: Dict[str, object]) -> Dict[str, List[str]]:
        """Problems per job for one pass's outputs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# tables: what `coxpizza tables` computes, minus the rank-7 row
# ---------------------------------------------------------------------------

TABLE_ROWS = (("A", 2), ("A", 3), ("A", 6), ("D", 3), ("D", 5))


class Tables(Workload):
    name = "tables"
    threads = 1
    nominal_pass_s = 7.0

    def __init__(self, seed: int, root: Path):
        self.golden_dir = root / "tests" / "golden"
        rng = random.Random(f"tables:{seed}")
        self.points = {
            (family, rank): gates.seeded_points(rng, make_spec(family, rank).ambient_dim, 3,
                                                sum_zero=family == "A")
            for family, rank in TABLE_ROWS
        }

    def jobs(self) -> List[Job]:
        return [Job(f"{family}_{rank}", functools.partial(self._row, family, rank))
                for family, rank in TABLE_ROWS]

    def _row(self, family: str, rank: int, tr: NullTracer):
        spec = make_spec(family, rank)
        phi = spec.positive_root_count
        report = taylor.expansion_report(spec, [phi, phi + 2], self.threads)
        return report, _serialize(tr, report)

    def check(self, outputs):
        problems = {}
        for family, rank in TABLE_ROWS:
            name = f"{family}_{rank}"
            if name not in outputs:
                continue
            report, text = outputs[name]
            golden = json.loads((self.golden_dir / f"{name}.json").read_text())
            lead, second = (entry.quotient.terms for entry in report.entries)
            gold_lead, gold_second = cli.GOLDEN_ROWS[(family, rank)]
            problems[name] = gates.table_gate(json.loads(text), golden, lead, second,
                                              gold_lead, gold_second, self.points[(family, rank)])
        return problems


# ---------------------------------------------------------------------------
# deep-expand: `coxpizza expand` past the table degrees, sharded fold
# ---------------------------------------------------------------------------

DEEP_JOBS = (("A", 6, (25,)), ("A", 3, (36, 40)), ("D", 5, (28, 30)))
# sha256 of `json.dumps(report.to_json_dict(), indent=2)`, pinned at the
# commit that introduced the benchmark.
DEEP_DIGESTS = {
    "A:6": "688ff589f906bdd237e5a42a18e6df66ff2e7cb61b50714eefcf5a6fe2254a07",
    "A:3": "fc84d0685a174d0e2238dbae799bfa09c5a7076e881e2eeff9524062c7a75127",
    "D:5": "8abca70677e5dd5384c90253799f5e5db3830c44bf38bee9a7d536d0c1974971",
}


class DeepExpand(Workload):
    name = "deep-expand"
    threads = 2
    nominal_pass_s = 21.0

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"deep-expand:{seed}")
        self.fold_points = {}
        self.relation_points = {}
        for family, rank, _ in DEEP_JOBS:
            arity = make_spec(family, rank).ambient_dim
            self.fold_points[(family, rank)] = gates.seeded_points(rng, arity, 3, sum_zero=False)
            self.relation_points[(family, rank)] = gates.seeded_points(rng, arity, 3, sum_zero=True)
        self.folds: Dict[Tuple[str, int, int], dict] = {}

    def jobs(self) -> List[Job]:
        return [Job(f"{family}:{rank}", functools.partial(self._expand, family, rank, degrees))
                for family, rank, degrees in DEEP_JOBS]

    def _expand(self, family: str, rank: int, degrees: Sequence[int], tr: NullTracer):
        report = taylor.expansion_report(make_spec(family, rank), list(degrees), self.threads)
        return report, _serialize(tr, report)

    def prepare_checks(self, tr: NullTracer) -> None:
        """Reference folds on one thread: the unsharded route, and the
        single-threaded baseline of the traced run's parallel efficiency."""
        if self.folds:
            return
        for family, rank, degrees in DEEP_JOBS:
            spec = make_spec(family, rank)
            for d in degrees:
                with tr.span("taylor.fold_t1"):
                    self.folds[(family, rank, d)] = taylor.z_poly(spec, d, 1).terms

    def check(self, outputs):
        problems = {}
        for family, rank, degrees in DEEP_JOBS:
            name = f"{family}:{rank}"
            if name not in outputs:
                continue
            report, text = outputs[name]
            spec = make_spec(family, rank)
            found = gates.digest_gate(name, text, DEEP_DIGESTS[name])
            if [e.degree for e in report.entries] != list(degrees):
                found.append(f"{name}: report degrees {[e.degree for e in report.entries]}")
            for entry in report.entries:
                found += gates.fold_identity_gate(
                    entry.degree, spec.positive_root_count, entry.quotient.terms,
                    self.folds[(family, rank, entry.degree)], family == "D",
                    self.fold_points[(family, rank)])
                if family == "A":
                    found += gates.relation_gate(entry.degree, entry.quotient.terms,
                                                 entry.reduced_quotient.terms,
                                                 self.relation_points[(family, rank)])
            problems[name] = found
        return problems


# ---------------------------------------------------------------------------
# sign-check: `coxpizza check sign` plus the two numeric oracles
# ---------------------------------------------------------------------------

# All centers have norm 0.3 before rounding, so the degree cap of the exact
# sign fold, which sets its cost, barely depends on the seed.
CENTER_NORM = 0.3
CENTER_MARGIN = 0.03
SIGN_D_CENTERS = 8
SIGN_A_CENTERS = 4
CHECK_MC_SAMPLES = 20_000
ORACLE_MC_SAMPLES = 1_000_000
SUM2S_DEGREE_CAP = 61


def interior_centers(family: str, rank: int, count: int,
                     rng: random.Random) -> List[Tuple[float, ...]]:
    """Centers of norm about CENTER_NORM whose unit-root pairings are all at
    least CENTER_MARGIN in absolute value, with coordinates on the 1/256 grid
    (exact dyadic rationals).  Type A centers satisfy sum(a) = 0 exactly."""
    dim = rank + 1 if family == "A" else rank
    out: List[Tuple[float, ...]] = []
    while len(out) < count:
        x = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        if family == "A":
            mean = sum(x) / dim
            x = [v - mean for v in x]
        scale = CENTER_NORM / math.sqrt(sum(v * v for v in x))
        x = [round(v * scale * 256) / 256 for v in x]
        if family == "A":
            x[-1] -= sum(x)
        pairings = [x[i] - x[j] for i in range(dim) for j in range(i + 1, dim)]
        if family == "D":
            pairings += [x[i] + x[j] for i in range(dim) for j in range(i + 1, dim)]
        if min(abs(p) for p in pairings) / math.sqrt(2) >= CENTER_MARGIN:
            out.append(tuple(x))
    return out


class SignCheck(Workload):
    name = "sign-check"
    threads = 2
    nominal_pass_s = 16.0

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"sign-check:{seed}")
        self.centers_d = interior_centers("D", 5, SIGN_D_CENTERS, rng)
        self.centers_a = interior_centers("A", 6, SIGN_A_CENTERS, rng)
        self.ball = oracle.BallSpec(interior_centers("A", 6, 1, rng)[0], 1.0)
        self.check_seed = rng.randrange(1 << 30)
        self.mc_seed = rng.randrange(1 << 30)

    def jobs(self) -> List[Job]:
        return [Job("signD", self._sign_d), Job("signA", self._sign_a),
                Job("mc A:6", self._mc), Job("sum2s A:6", self._sum2s)]

    def _sign(self, tr, conjecture_id, check, rank, centers):
        out = _check_report(tr, conjecture_id, check, rank, centers, CHECK_MC_SAMPLES,
                            self.check_seed)
        tr.count("conjectures.decided", len(centers) - len(out[0].notes))
        return out

    def _sign_d(self, tr):
        return self._sign(tr, "signD", conjectures.check_sign_D, 5, self.centers_d)

    def _sign_a(self, tr):
        return self._sign(tr, "signA", conjectures.check_sign_A, 6, self.centers_a)

    def _mc(self, tr):
        with tr.span("oracle.mc"):
            est = oracle.mc_pizza(make_spec("A", 6), self.ball, ORACLE_MC_SAMPLES, self.mc_seed,
                                  threads=self.threads)
        tr.count("oracle.mc_samples", ORACLE_MC_SAMPLES)
        return est, repr((est.value, est.std_error))

    def _sum2s(self, tr):
        with tr.span("oracle.sum2s"):
            value, tail = oracle.sum_over_2structures(make_spec("A", 6), self.ball,
                                                      SUM2S_DEGREE_CAP)
        return (value, tail), repr((value, tail))

    def check(self, outputs):
        def params(centers):
            return {"centers": [list(c) for c in centers], "samples": CHECK_MC_SAMPLES,
                    "seed": self.check_seed}

        problems = {}
        for job, centers in (("signD", self.centers_d), ("signA", self.centers_a)):
            if job in outputs:
                problems[job] = gates.verdict_gate(json.loads(outputs[job][1]), job,
                                                   params(centers))
        if "mc A:6" in outputs and "sum2s A:6" in outputs:
            est = outputs["mc A:6"][0]
            value, tail = outputs["sum2s A:6"][0]
            agreement = gates.oracle_agreement_gate(est.value, est.std_error, value, tail)
            problems["mc A:6"] = problems["sum2s A:6"] = agreement
        return problems


# ---------------------------------------------------------------------------
# audits: the exact structural checkers
# ---------------------------------------------------------------------------

SCHUR_DEGREES = range(22, 33, 2)
LEMMA51_DEGREES = range(20, 29, 2)


class Audits(Workload):
    name = "audits"
    threads = 1
    nominal_pass_s = 7.0

    def jobs(self) -> List[Job]:
        def check(conjecture_id, call, *args):
            return lambda tr: _check_report(tr, conjecture_id, call, *args)

        jobs = [Job("tPos d60", check("tPos", conjectures.check_t_positivity, 60)),
                Job("yNeg D5 d34", check("yNeg", conjectures.check_y_negativity, 5, 34))]
        jobs += [Job(f"schurRecon D5 d{d}",
                     check("schurRecon", conjectures.schur_reconstruct, 5, d))
                 for d in SCHUR_DEGREES]
        jobs += [Job(f"lemma51 D5 d{d}", check("lemma51", conjectures.check_lemma51, 5, d))
                 for d in LEMMA51_DEGREES]
        return jobs

    def check(self, outputs):
        return {name: gates.verdict_gate(json.loads(text), name.split()[0])
                for name, (_, text) in outputs.items()}


WORKLOADS = {cls.name: cls for cls in (Tables, DeepExpand, SignCheck, Audits)}
