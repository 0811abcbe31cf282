"""Automated checkers for the sign and coefficient conjectures.

Each checker returns a ConjectureReport.  Verdicts: "consistent" when every
probe supports the statement, "violated" when a witness contradicts it
(witnesses carry the full offending instance), "inconclusive" when an
error band still straddles zero (a sign check's tail band at cap 400) or
no center was probed (all at the origin).  No exact audit is inconclusive.

Checkers are probes of open statements: in verified ranges a violation
means a bug, beyond them it is a reportable finding, so violations are
data (reports), not exceptions.  Exceptions are reserved for internal
contradictions (e.g. the two numeric oracles disagreeing with both error
bands excluding zero).

The sign checks decide each center with oracle.exact_sign_fold, an exact
rational fold with a rigorous tail band: one probe at degree |Phi+|, where
the fold first can be nonzero, then one fold at the lowest cap whose tail
bound, known without folding, is well below the probe's value.

The exact audits read what the pipeline computes: the dominant
coefficients (check y-neg; check schur and check lemma51, which test them
against oracle.fold_mod, the fold modulo 2^61 - 1, at three seeded points
of [0, 2^61 - 1), so a wrong identity of degree d passes one point with
probability at most d / (2^61 - 1)) and the edge tables (check t-pos).
No audit expands the fold.  Degrees where the fold vanishes are refused.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .matchings import c_coefficient
from .oracle import (MAX_DEGREE_CAP, MAX_FOLD_MOD_WORK, MODULUS, BallSpec, exact_sign_fold, fold_mod,
                     fold_mod_work, mc_pizza, require_dimension, require_sum_zero, sign_fold_tails)
from .polyring import NonDivisible, partitions
from .rootsys import ArrangementSpec, chamber_sign, make_spec
from .taylor import (MAX_QUOTIENT_WORK, ResourceCapExceeded, _edge_table, _require_symbolic_regime,
                     dominant_coefficients)


class OracleDisagreement(RuntimeError):
    """The series fold and Monte Carlo disagree with both bands excluding zero."""


class ReconstructionMismatch(RuntimeError):
    """The alternant reconstruction does not reproduce the fold modulo
    2^61 - 1 at a seeded point, or cannot be checked modulo it."""


class RewriteFailed(RuntimeError):
    """A quotient expected to be symmetric and even in its variables is not."""


@dataclass
class ConjectureReport:
    conjecture_id: str
    parameters: dict
    verdict: str
    witnesses: List[dict]
    notes: List[str] = field(default_factory=list)
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "conjecture_id": self.conjecture_id,
            "params": self.parameters,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "notes": self.notes,
            "runtime_ms": self.runtime_ms,
        }


def _finish(conjecture_id: str, params: dict, witnesses: List[dict], notes: List[str],
            inconclusive: bool, started: float) -> ConjectureReport:
    if witnesses:
        verdict = "violated"
    elif inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return ConjectureReport(conjecture_id, params, verdict, witnesses, notes,
                            (time.perf_counter() - started) * 1000.0)


# ---------------------------------------------------------------------------
# sign conjectures (numeric)
# ---------------------------------------------------------------------------


def _signed_estimate(spec: ArrangementSpec, center: Sequence[float]) -> Tuple[Fraction, Fraction, int]:
    """(value, tail, degree_cap) from the exact rational fold.  The value is
    the quantity up to a positive prefactor, so its sign is decisive once
    |value| > tail.

    The first fold probes at cap |Phi+|, the lowest degree at which the
    anti-symmetric fold can be nonzero, so its value is the leading-order
    term of the quantity.  The tail bound needs no fold
    (oracle.sign_fold_tails), so the next fold runs at the smallest cap whose
    bound is below a quarter of that value; near the origin the leading
    term is close to the whole, and that fold decides.  While the band still
    straddles zero the cap is chosen again from the new value; a value of
    exactly 0 steps the cap by 40.  The cap never exceeds 400."""
    cap = spec.positive_root_count
    value, tail = exact_sign_fold(spec, center, cap)
    tail_at = None
    while tail >= abs(value) and cap < MAX_DEGREE_CAP:
        if value == 0:
            cap = min(MAX_DEGREE_CAP, cap + 40)
        else:
            if tail_at is None:
                tail_at = sign_fold_tails(spec, center)
            cap = next((c for c in range(cap + 2, MAX_DEGREE_CAP, 2)
                        if tail_at(c) < abs(value) / 4), MAX_DEGREE_CAP)
        value, tail = exact_sign_fold(spec, center, cap)
    return value, tail, cap


def _check_sign(conjecture_id: str, spec: ArrangementSpec, predicted_of_t,
                centers: Sequence[Sequence[float]], samples: int, seed: int) -> ConjectureReport:
    started = time.perf_counter()
    if not centers:
        raise ValueError("no centers to probe")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for center in centers:
        require_dimension(spec, center)
        BallSpec(tuple(center), 1.0)  # refuses a non-finite coordinate
        require_sum_zero(spec, center)
    witnesses: List[dict] = []
    notes: List[str] = []
    inconclusive, probed = False, False
    for idx, center in enumerate(centers):
        if math.sqrt(sum(x * x for x in center)) < 1e-12:
            notes.append(f"center {idx}: at the origin, quantity vanishes (degenerate, skipped)")
            continue
        probed = True
        t = chamber_sign(spec, center)
        value, tail, cap = _signed_estimate(spec, center)
        predicted = predicted_of_t(t)
        if abs(value) <= tail:
            inconclusive = True
            notes.append(
                f"center {idx}: band straddles zero (value {float(value):.3e}, "
                f"tail {float(tail):.3e}, cap {cap})"
            )
            continue
        if samples > 0:  # cross-check a decided sign only
            mc = mc_pizza(spec, BallSpec(tuple(center), 1.0), samples, seed + idx)
            if abs(mc.value) > 3 * mc.std_error and (mc.value > 0) != (value > 0):
                raise OracleDisagreement(
                    f"center {center}: series fold gives {value} (tail {tail}) but "
                    f"Monte Carlo gives {mc.value} +- {mc.std_error}"
                )
        if (value > 0) != (predicted > 0):
            witnesses.append({
                "center": list(center),
                "chamber_sign": t,
                "estimate": float(value),
                "estimate_exact": str(value),
                "tail_bound": float(tail),
                "degree_cap": cap,
            })
    params = {
        "family": spec.family,
        "rank": spec.rank,
        "centers": [list(c) for c in centers],
        "samples": samples,
        "seed": seed,
    }
    return _finish(conjecture_id, params, witnesses, notes, inconclusive or not probed, started)


def check_sign_A(n: int, centers: Sequence[Sequence[float]], samples: int = 0,
                 seed: int = 0) -> ConjectureReport:
    """Sign prediction for type A (rank 2 or 3 mod 4): the quantity at a
    center strictly inside a chamber has sign (-1)^floor((n+1)/4) times the
    chamber sign."""
    spec = make_spec("A", n)
    _require_symbolic_regime(spec)
    prefactor = -1 if ((n + 1) // 4) % 2 else 1
    return _check_sign("signA", spec, lambda t: prefactor * t, centers, samples, seed)


def check_sign_D(n: int, centers: Sequence[Sequence[float]], samples: int = 0,
                 seed: int = 0) -> ConjectureReport:
    """Sign prediction for type D (odd rank): the quantity has sign opposite
    to the chamber sign."""
    spec = make_spec("D", n)
    _require_symbolic_regime(spec)
    return _check_sign("signD", spec, lambda t: -t, centers, samples, seed)


# ---------------------------------------------------------------------------
# structural audits of the fold (exact)
# ---------------------------------------------------------------------------


def _type_d(n: int, d: Optional[int] = None) -> Tuple[ArrangementSpec, int]:
    """The rank-n type D spec and |Phi+|, the lowest degree at which its fold
    can be nonzero; refuses a degree d where the fold vanishes identically,
    then an even rank (_require_symbolic_regime)."""
    spec = make_spec("D", n)
    base = spec.positive_root_count
    if d is not None and (d < base or (d - base) % 2):
        raise ValueError(f"degree {d} below the lowest nonzero degree {base} or wrong parity")
    _require_symbolic_regime(spec)
    return spec, base


def _checked_coefficients(n: int, d: int) -> Tuple[int, Dict[Tuple[int, ...], Fraction]]:
    """(shift, c_lambda) of the type D fold, once Z_d = 2^shift sum c_lambda
    s_lambda(a^2) prod_(i<j) (a_i^2 - a_j^2) holds modulo p = 2^61 - 1 at
    three seeded points of [0, p)^n (a wrong identity passes one with
    probability at most d / p, by Schwartz-Zippel); raises
    ReconstructionMismatch otherwise.  The fold is oracle.fold_mod's; the
    right side is 2^shift sum c_lambda det(x_i^(lambda_j + n - j)), x = a^2,
    by the bialternant formula, over one common denominator of the c_lambda,
    which must be prime to p.  Refused with ResourceCapExceeded before any
    coefficient or point when fold_mod_work exceeds MAX_FOLD_MOD_WORK."""
    spec, base = _type_d(n, d)
    work = fold_mod_work(spec, d)
    if work > MAX_FOLD_MOD_WORK:
        raise ResourceCapExceeded(f"rank {n} degree {d}: about {work} steps for each point of the "
                                  f"fold modulo 2^61 - 1 exceed the cap of {MAX_FOLD_MOD_WORK}")
    shift = (d - base) // 2
    coeffs = dominant_coefficients(spec, d)
    common = math.lcm(*(c.denominator for c in coeffs.values()))
    if common % MODULUS == 0:
        raise ReconstructionMismatch(f"rank {n} degree {d}: a c_lambda denominator is divisible by "
                                     f"2^61 - 1, so the identity cannot be checked modulo it")
    scale = pow(common, -1, MODULUS) << shift
    alternants = [(c.numerator * (common // c.denominator),
                   [part + n - 1 - j for j, part in enumerate(lam + (0,) * (n - len(lam)))])
                  for lam, c in coeffs.items()]
    rng = random.Random(f"schurRecon D{n} d{d}")
    for _ in range(3):
        point = [rng.randrange(MODULUS) for _ in range(n)]
        powers = []
        for a in point:
            square, row = a * a % MODULUS, [1]
            for _ in range(shift + n - 1):
                row.append(row[-1] * square % MODULUS)
            powers.append(row)
        total = sum(c * _determinant_mod([[row[e] for e in exponents] for row in powers])
                    for c, exponents in alternants)
        if fold_mod(spec, point, d) != total * scale % MODULUS:
            raise ReconstructionMismatch(f"rank {n} degree {d}: alternant reconstruction "
                                         f"does not match the fold at {point}")
    return shift, coeffs


def _determinant_mod(rows: List[List[int]]) -> int:
    """The determinant modulo MODULUS of a square matrix of residues, by
    Gaussian elimination without division: eliminating below a pivot p
    scales each remaining row by p, and the determinant is divided by those
    factors once at the end."""
    rows, value, scale = list(rows), 1, 1
    while len(rows) > 1:
        index = next((i for i, row in enumerate(rows) if row[0]), None)
        if index is None:
            return 0
        head = rows.pop(index)  # moving it to the top permutes `index` rows past it
        lead = head[0]
        value = (-value if index % 2 else value) * lead % MODULUS
        scale = scale * pow(lead, len(rows), MODULUS) % MODULUS
        rows = [[(lead * x - row[0] * y) % MODULUS for x, y in zip(row[1:], head[1:])]
                for row in rows]
    return value * rows[0][0] * pow(scale, -1, MODULUS) % MODULUS


def check_lemma51(n: int, d: int) -> ConjectureReport:
    """Monomial audit of the type D fold: (a) every exponent even,
    (b) at least one zero exponent per monomial, (c) no two equal exponents.
    Past _checked_coefficients the monomials are the n! rearrangements
    sigma(2(lambda+delta)) per c_lambda, with coefficient sgn(sigma) 2^shift
    c_lambda: (a) and (c) hold, and (b) fails on those of a lambda with n parts."""
    started = time.perf_counter()
    shift, coeffs = _checked_coefficients(n, d)
    terms = []
    for lam, c in coeffs.items():
        if len(lam) == n:
            for mono in itertools.permutations(2 * (part + n - 1 - i) for i, part in enumerate(lam)):
                inversions = sum(x < y for i, x in enumerate(mono) for y in mono[i + 1:])
                terms.append((mono, (-1) ** inversions * c * (1 << shift)))
    witnesses = [{"claim": "no_zero_exponent", "monomial": list(mono), "coefficient": str(coeff)}
                 for mono, coeff in sorted(terms, reverse=True)]
    params = {"family": "D", "rank": n, "degree": d, "monomials": math.factorial(n) * len(coeffs)}
    return _finish("lemma51", params, witnesses, [], False, started)


def check_y_negativity(n: int, d_max: int) -> ConjectureReport:
    """For each valid degree d from n(n-1) to d_max, the coefficient c_lambda
    of the type D fold on every strictly decreasing target monomial
    a^(2(lambda+delta)) with a zero last exponent (lambda with at most n-1
    parts) must be strictly negative.  Zero coefficients are classified
    separately from positive ones (the statement is strict).

    The largest degree is computed first: dominant_coefficients' work
    estimate does not decrease with the degree, so a range it refuses is
    refused there, before any other degree is computed."""
    started = time.perf_counter()
    spec, base = _type_d(n)
    if d_max < base:
        raise ValueError(f"max degree {d_max} is below the lowest nonzero degree {base}")
    witnesses: List[dict] = []
    degrees = list(range(base, d_max + 1, 2))
    top = dominant_coefficients(spec, degrees[-1])
    for d in degrees:
        coeffs = top if d == degrees[-1] else dominant_coefficients(spec, d)
        half = (d - base) // 2
        for lam in partitions(half, n - 1):
            padded = list(lam) + [0] * (n - 1 - len(lam))
            mono = tuple(2 * padded[i] + 2 * (n - 1 - i) for i in range(n - 1))
            coeff = coeffs.get(lam, 0)
            if coeff > 0:
                witnesses.append({"degree": d, "partition": list(lam), "monomial": list(mono),
                                  "coefficient": str(coeff), "kind": "positive"})
            elif coeff == 0:
                witnesses.append({"degree": d, "partition": list(lam), "monomial": list(mono),
                                  "coefficient": "0", "kind": "zero (non-strict violation)"})
    params = {"rank": n, "degrees": degrees}
    return _finish("yNeg", params, witnesses, [], False, started)


def schur_reconstruct(n: int, d: int) -> ConjectureReport:
    """Rebuild the type D fold from its dominant coefficients c_lambda
    (lambda with at most n-1 parts; the others vanish by Lemma 5.1(b)),
    checked by _checked_coefficients.  A mismatch, or a nonzero c_lambda
    with n parts, raises ReconstructionMismatch."""
    started = time.perf_counter()
    shift, coeffs = _checked_coefficients(n, d)
    full = [lam for lam in coeffs if len(lam) == n]
    if full:
        raise ReconstructionMismatch(f"rank {n} degree {d}: c_lambda nonzero on {full}, "
                                     f"partitions with {n} parts")
    params = {"rank": n, "degree": d, "lambda_coefficients": {
        str(list(lam)): str(coeffs.get(lam, 0)) for lam in partitions(shift, n - 1)}}
    return _finish("schurRecon", params, [], [], False, started)


# ---------------------------------------------------------------------------
# positivity of the two-variable quotient blocks (exact)
# ---------------------------------------------------------------------------


def _u_v_basis(coeffs: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """The homogeneous sum of coeffs[e] x^e y^(D-e), D = len(coeffs) - 1,
    divided exactly by x^2 - y^2 and written in u = x^2 + y^2, v = x^2 y^2:
    the nonzero coefficients of u^i v^j, keyed by (i, j).  Raises NonDivisible
    on a remainder, and RewriteFailed when the quotient has an odd exponent or
    is not symmetric."""
    # synthetic division by t^2 - 1 in t = x/y: h[k-2] = g[k] + h[k]
    quot = [0] * len(coeffs)
    for k in range(len(coeffs) - 1, 1, -1):
        quot[k - 2] = coeffs[k] + quot[k]
    if coeffs[0] + quot[0] or coeffs[1] + quot[1]:
        raise NonDivisible("nonzero remainder when dividing by x^2 - y^2")
    quot = quot[:-2]
    if any(quot[1::2]) or (len(quot) % 2 == 0 and any(quot)):
        raise RewriteFailed("quotient has an odd exponent; expected even in each variable")
    halved = quot[::2]  # coefficient of X^i Y^(top-i), X = x^2, Y = y^2
    if halved != halved[::-1]:
        raise RewriteFailed("quotient is not symmetric in its variables")
    # u^(top-2i) v^i has the coefficient C(top-2i, b-i) on X^(top-b) Y^b
    top = len(halved) - 1
    solved: List[int] = []
    for b in range(top // 2 + 1):
        solved.append(halved[top - b] - sum(c * math.comb(top - 2 * i, b - i)
                                            for i, c in enumerate(solved)))
    return {(top - 2 * b, b): c for b, c in enumerate(solved) if c}


def _t_block_basis(d: int) -> Dict[Tuple[int, int], Fraction]:
    """Minus the degree-d block of T(3, 2) composed with (x+y, x-y) and
    normalized to unit forms, divided exactly by x^2 - y^2, in the basis
    u = x^2 + y^2, v = x^2 y^2.

    With m = (d-2)/2 the composed block is c_m m! times the sum over
    r+s=m of (x+y)^(2r+1) (x-y)^(2s+1) / ((2r+1)(2s+1) r! s!); swapping r
    and s makes it the minus/plus pair's edge table at inner degree m, so
    the block is that table scaled by -c_m m! / (S 2^(d/2)), a scale applied
    once to the integer basis coefficients."""
    m = (d - 2) // 2
    table, scalar = _edge_table(True, m)
    scale = -c_coefficient(3, 2, m) * math.factorial(m) / (scalar << (d // 2))
    coeffs = [table.get((e, d - e), 0) for e in range(d + 1)]
    return {key: scale * c for key, c in _u_v_basis(coeffs).items()}


def check_t_positivity(d_max: int) -> ConjectureReport:
    """For even degrees d in [6, d_max]: minus the degree-d block composed
    with (x+y, x-y) and normalized to unit forms, divided exactly by
    x^2 - y^2, must have non-negative coefficients in the basis
    u = x^2 + y^2, v = x^2 y^2.  The block is read off the minus/plus
    edge table of the type D folds (see _t_block_basis), built by its
    two-term recurrence in O(m) steps per table.  The check is refused
    before any table is built when (m+1)^3, m = (d_max - 2) / 2, exceeds
    MAX_QUOTIENT_WORK, the edge tables' term in dominant_coefficients:
    d_max = 400 takes about 0.5 s and 736, the largest admitted, about 5 s."""
    started = time.perf_counter()
    if d_max < 6:
        raise ValueError(f"max degree {d_max} is below the first degree 6")
    work = ((d_max - 2) // 2 + 1) ** 3
    if work > MAX_QUOTIENT_WORK:
        raise ResourceCapExceeded(f"max degree {d_max}: about {work} steps for the edge tables "
                                  f"exceed the cap of {MAX_QUOTIENT_WORK}")
    witnesses: List[dict] = []
    degrees = list(range(6, d_max + 1, 2))
    for d in degrees:
        for (i, j), c in sorted(_t_block_basis(d).items()):
            if c < 0:
                witnesses.append({"degree": d, "u_power": i, "v_power": j, "coefficient": str(c)})
    params = {"degrees": degrees}
    return _finish("tPos", params, witnesses, [], False, started)
