"""Verification gates for the benchmark's outputs.

Each gate takes plain data (polynomial term dicts, parsed reports, numbers)
and returns a list of problems; an empty list means the output passed.
Gates run after the timed passes and never change what they inspect.

Polynomial identities are checked by exact rational evaluation at seeded
points.  A nonzero polynomial of degree D vanishes at a point drawn
uniformly from a grid of side S with probability at most D/S
(Schwartz-Zippel); the points come from a grid of side 2^41, so a wrong
identity slips through three points with probability below 1e-30.  A
single changed coefficient c*m(a) is caught at every point with nonzero,
pairwise distinct coordinates, which is how the points are drawn.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Terms = Mapping[Tuple[int, ...], Fraction]
Point = Tuple[int, ...]

GRID = 1 << 40


def evaluate(terms: Terms, point: Sequence[int]) -> Fraction:
    """Exact value of sum c * prod x_i^e_i at an integer point.  Numerators
    are summed per denominator, so big-integer gcds are taken only once per
    distinct denominator."""
    powers = [dict() for _ in point]
    by_den: Dict[int, int] = {}
    for mono, coeff in terms.items():
        coeff = Fraction(coeff)
        value = coeff.numerator
        for x, e, cache in zip(point, mono, powers):
            if e:
                if e not in cache:
                    cache[e] = x ** e
                value *= cache[e]
        by_den[coeff.denominator] = by_den.get(coeff.denominator, 0) + value
    return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))


def vandermonde_at(point: Sequence, squared: bool) -> Fraction:
    """prod_{i<j} (x_i - x_j), or prod (x_i^2 - x_j^2) when squared."""
    out = Fraction(1)
    for i in range(len(point)):
        for j in range(i + 1, len(point)):
            out *= (point[i] ** 2 - point[j] ** 2) if squared else (point[i] - point[j])
    return out


def seeded_points(rng: random.Random, arity: int, count: int, sum_zero: bool) -> List[Point]:
    """Integer points with nonzero, pairwise distinct coordinates and
    distinct squares; with ``sum_zero`` the last coordinate makes the sum 0."""
    points: List[Point] = []
    while len(points) < count:
        coords = [rng.randrange(-GRID, GRID + 1) for _ in range(arity)]
        if sum_zero:
            coords[-1] = -sum(coords[:-1])
        if 0 in coords or len({abs(c) for c in coords}) != arity:
            continue
        points.append(tuple(coords))
    return points


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def table_gate(report_json: dict, golden_json: dict, lead: Terms, second: Terms,
               gold_lead: Fraction, gold_second: Fraction, points: Sequence[Point]) -> List[str]:
    """The serialized report equals the golden file; the lead quotient is the
    constant ``gold_lead``; the second quotient equals ``gold_second`` times
    a_1^2 + ... at every point (type A points satisfy the sum relation)."""
    problems = []
    if report_json != golden_json:
        problems.append("report differs from the golden file")
    if dict(lead) != {(0,) * len(points[0]): gold_lead}:
        problems.append(f"lead quotient is not the constant {gold_lead}")
    for point in points:
        want = gold_second * sum(Fraction(x) ** 2 for x in point)
        if evaluate(second, point) != want:
            problems.append(f"second quotient is not {gold_second} * p2 at {point}")
            break
    return problems


# ---------------------------------------------------------------------------
# deep expand
# ---------------------------------------------------------------------------


def fold_identity_gate(degree: int, phi_plus: int, quotient: Terms, fold: Terms,
                       squared: bool, points: Iterable[Point]) -> List[str]:
    """quotient * Vandermonde * 2^((degree - phi_plus)/2) == fold."""
    scale = Fraction(2) ** ((degree - phi_plus) // 2)
    for point in points:
        lhs = evaluate(quotient, point) * vandermonde_at(point, squared) * scale
        if lhs != evaluate(fold, point):
            return [f"degree {degree}: quotient times Vandermonde differs from the fold at {point}"]
    return []


def relation_gate(degree: int, quotient: Terms, reduced: Terms,
                  points: Iterable[Point]) -> List[str]:
    """Reduced and unreduced quotients agree on sum(a) = 0."""
    for point in points:
        if sum(point) != 0:
            raise ValueError("relation points must satisfy sum(a) = 0")
        if evaluate(quotient, point) != evaluate(reduced, point):
            return [f"degree {degree}: reduced quotient differs from the quotient at {point}"]
    return []


def digest_gate(label: str, text: str, pinned: str) -> List[str]:
    got = digest(text)
    return [] if got == pinned else [f"{label}: report digest {got[:16]} != pinned {pinned[:16]}"]


# ---------------------------------------------------------------------------
# conjecture checks and oracles
# ---------------------------------------------------------------------------


def verdict_gate(report_json: dict, conjecture_id: str, params: Mapping = ()) -> List[str]:
    """A checker report in its verified range: the expected ID, verdict
    ``consistent``, no witnesses, and the given parameters echoed back."""
    problems = []
    if report_json.get("conjecture_id") != conjecture_id:
        problems.append(f"report ID {report_json.get('conjecture_id')!r} != {conjecture_id!r}")
    if report_json.get("verdict") != "consistent":
        problems.append(f"{conjecture_id}: verdict {report_json.get('verdict')!r}")
    if report_json.get("witnesses"):
        problems.append(f"{conjecture_id}: {len(report_json['witnesses'])} witnesses")
    for key, value in dict(params).items():
        if report_json.get("params", {}).get(key) != value:
            problems.append(f"{conjecture_id}: parameter {key} not echoed")
    return problems


def oracle_agreement_gate(mc_value: float, mc_std_error: float,
                          series_value: float, series_tail: float) -> List[str]:
    """Monte Carlo and the 2-structure series agree within 5 sigma + tail."""
    allowed = 5 * mc_std_error + series_tail
    gap = abs(mc_value - series_value)
    if not math.isfinite(gap) or gap > allowed:
        return [f"Monte Carlo {mc_value} and series {series_value} differ by {gap} > {allowed}"]
    return []


def repeat_gate(fingerprints: Sequence[Dict[str, str]]) -> List[Tuple[int, str]]:
    """(pass number, job) for every job whose output fingerprint in a later
    pass differs from pass 1; passes are numbered from 1."""
    mismatches = []
    for number, other in enumerate(fingerprints[1:], start=2):
        for job, fp in other.items():
            if job in fingerprints[0] and fingerprints[0][job] != fp:
                mismatches.append((number, job))
    return mismatches
