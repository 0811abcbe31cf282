"""Automated checkers for the sign and coefficient conjectures.

Each checker returns a ConjectureReport.  Verdicts: "consistent" when every
probe supports the statement, "violated" when a witness contradicts it
(witnesses carry the full offending instance), "inconclusive" when a
statistical error band straddles zero.  Exact checkers never return
inconclusive.

Checkers are probes of open statements: in verified ranges a violation
means a bug, beyond them it is a reportable finding, so violations are
data (reports), not exceptions.  Exceptions are reserved for internal
contradictions (e.g. the two numeric oracles disagreeing with both error
bands excluding zero).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .matchings import enumerate_matchings, fold_parameters, form_values
from .oracle import BallSpec, auto_degree_cap, exact_sign_fold, mc_pizza, require_sum_zero
from .polyring import Poly, alternant, exact_divide_linear, mul, partitions
from .rootsys import ArrangementSpec, chamber_sign, make_spec
from .taylor import (ParityRegimeError, _edge_table, c_coefficient, dominant_coefficients,
                     z_poly)

CONJECTURE_IDS = ("signA", "signD", "lemma51", "yNeg", "schurRecon", "tPos")


class OracleDisagreement(RuntimeError):
    """The series fold and Monte Carlo disagree with both bands excluding zero."""


class ReconstructionMismatch(RuntimeError):
    """The alternant reconstruction does not reproduce the fold exactly."""


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


def _max_structure_square(spec: ArrangementSpec, center: Sequence[float]) -> float:
    """Largest sum of squared unit-form pairings over the matching-indexed
    subsystems; controls the series tail at this center."""
    geometry = fold_parameters(spec)
    worst = 0.0
    for matching in enumerate_matchings(geometry.ground):
        s = 0.0
        for u in form_values(geometry, matching, center):
            unit = u / math.sqrt(2)
            s += unit * unit
        worst = max(worst, s)
    return worst


def _signed_estimate(spec: ArrangementSpec, center: Sequence[float]) -> Tuple[Fraction, Fraction, int]:
    """(value, tail, degree_cap) from the exact rational fold, the cap grown
    until the band excludes zero or the cap limit is reached.  The value is
    the quantity up to a positive prefactor, so its sign is decisive."""
    k = fold_parameters(spec).k
    smax = _max_structure_square(spec, center)
    cap = auto_degree_cap(spec.rank, k, smax, 1e-12)
    value, tail = exact_sign_fold(spec, center, cap)
    while tail >= abs(value) and cap < 400:
        cap = min(400, cap + 40)
        value, tail = exact_sign_fold(spec, center, cap)
    return value, tail, cap


def _check_sign(conjecture_id: str, spec: ArrangementSpec, predicted_of_t,
                centers: Sequence[Sequence[float]], samples: int, seed: int) -> ConjectureReport:
    started = time.perf_counter()
    if not centers:
        raise ValueError("no centers to probe")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    for center in centers:
        if len(center) != spec.ambient_dim:
            raise ValueError(f"center {center} has wrong dimension for {spec}")
        require_sum_zero(spec, center)
    witnesses: List[dict] = []
    notes: List[str] = []
    inconclusive = False
    for idx, center in enumerate(centers):
        if math.sqrt(sum(x * x for x in center)) < 1e-12:
            notes.append(f"center {idx}: at the origin, quantity vanishes (degenerate, skipped)")
            continue
        t = chamber_sign(spec, center)
        value, tail, cap = _signed_estimate(spec, center)
        predicted = predicted_of_t(t)

        if samples > 0:
            mc = mc_pizza(spec, BallSpec(tuple(center), 1.0), samples, seed + idx)
            if abs(mc.value) > 3 * mc.std_error and abs(value) > tail:
                if (mc.value > 0) != (value > 0):
                    raise OracleDisagreement(
                        f"center {center}: series fold gives {value} (tail {tail}) but "
                        f"Monte Carlo gives {mc.value} +- {mc.std_error}"
                    )

        if abs(value) <= tail:
            inconclusive = True
            notes.append(
                f"center {idx}: band straddles zero (value {float(value):.3e}, "
                f"tail {float(tail):.3e}, cap {cap})"
            )
            continue
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
    return _finish(conjecture_id, params, witnesses, notes, inconclusive, started)


def check_sign_A(n: int, centers: Sequence[Sequence[float]], samples: int = 0,
                 seed: int = 0) -> ConjectureReport:
    """Sign prediction for type A (rank 2 or 3 mod 4): the quantity at a
    center strictly inside a chamber has sign (-1)^floor((n+1)/4) times the
    chamber sign."""
    if n % 4 not in (2, 3):
        raise ParityRegimeError("type A sign conjecture applies to rank 2 or 3 mod 4")
    spec = make_spec("A", n)
    prefactor = -1 if ((n + 1) // 4) % 2 else 1
    return _check_sign("signA", spec, lambda t: prefactor * t, centers, samples, seed)


def check_sign_D(n: int, centers: Sequence[Sequence[float]], samples: int = 0,
                 seed: int = 0) -> ConjectureReport:
    """Sign prediction for type D (odd rank): the quantity has sign opposite
    to the chamber sign."""
    if n % 2 == 0 or n < 3:
        raise ParityRegimeError("type D sign conjecture applies to odd rank >= 3")
    spec = make_spec("D", n)
    return _check_sign("signD", spec, lambda t: -t, centers, samples, seed)


# ---------------------------------------------------------------------------
# structural audits of the fold (exact)
# ---------------------------------------------------------------------------


def check_lemma51(n: int, d: int) -> ConjectureReport:
    """Monomial audit of the type D fold: (a) every exponent even,
    (b) at least one zero exponent per monomial, (c) no two equal exponents."""
    started = time.perf_counter()
    z = z_poly(make_spec("D", n), d)
    witnesses: List[dict] = []
    for mono, coeff in z.sorted_terms():
        claims = []
        if any(e % 2 for e in mono):
            claims.append("odd_exponent")
        if all(e > 0 for e in mono):
            claims.append("no_zero_exponent")
        if len(set(mono)) != len(mono):
            claims.append("repeated_exponent")
        for claim in claims:
            witnesses.append({"claim": claim, "monomial": list(mono), "coefficient": str(coeff)})
    params = {"family": "D", "rank": n, "degree": d, "monomials": len(z)}
    return _finish("lemma51", params, witnesses, [], False, started)


def check_y_negativity(n: int, d_max: int) -> ConjectureReport:
    """For each valid degree d from n(n-1) to d_max, the coefficient c_lambda
    of the type D fold on every strictly decreasing target monomial
    a^(2(lambda+delta)) with a zero last exponent (lambda with at most n-1
    parts) must be strictly negative.  Zero coefficients are classified
    separately from positive ones (the statement is strict)."""
    started = time.perf_counter()
    if n < 3 or n % 2 == 0:
        raise ParityRegimeError("y-negativity applies to odd rank >= 3")
    spec = make_spec("D", n)
    base = n * (n - 1)
    if d_max < base:
        raise ValueError(f"max degree {d_max} is below the lowest nonzero degree {base}")
    witnesses: List[dict] = []
    degrees = list(range(base, d_max + 1, 2))
    for d in degrees:
        coeffs = dominant_coefficients(spec, d)
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
    """Rebuild the full type D fold from its dominant coefficients c_lambda
    (lambda with at most n-1 parts; the others vanish by Lemma 5.1(b)): the
    sum over partitions of c_lambda times the alternant a_(2(lambda+delta)),
    which is the squared Vandermonde times the Schur polynomial in the
    squared variables, must equal the fold exactly.  A mismatch raises
    ReconstructionMismatch."""
    started = time.perf_counter()
    spec = make_spec("D", n)
    base = n * (n - 1)
    if d < base or (d - base) % 2:
        raise ValueError(f"degree {d} below the lowest nonzero degree {base} or wrong parity")
    coeffs = dominant_coefficients(spec, d)
    shift = (d - base) // 2
    target = z_poly(spec, d).scale(Fraction(1, 1 << shift))

    lambda_coeffs: Dict[Tuple[int, ...], Fraction] = {}
    reconstruction = Poly.zero(n)
    for lam in partitions(shift, n - 1):
        c = coeffs.get(lam, 0)
        lambda_coeffs[lam] = c
        if c:
            padded = lam + (0,) * (n - len(lam))
            exponents = [2 * (part + n - 1 - i) for i, part in enumerate(padded)]
            reconstruction = reconstruction + alternant(exponents, n).scale(c)
    if reconstruction != target:
        raise ReconstructionMismatch(
            f"rank {n} degree {d}: alternant reconstruction does not match the fold"
        )
    params = {
        "rank": n,
        "degree": d,
        "lambda_coefficients": {str(list(k)): str(v) for k, v in lambda_coeffs.items()},
    }
    return _finish("schurRecon", params, [], [], False, started)


# ---------------------------------------------------------------------------
# positivity of the two-variable quotient blocks (exact)
# ---------------------------------------------------------------------------


def _rewrite_even_symmetric(p: Poly) -> Dict[Tuple[int, int], Fraction]:
    """Write a symmetric polynomial with all-even exponents in two variables
    in the basis u = x^2 + y^2, v = x^2 y^2; raises RewriteFailed otherwise."""
    if p.arity != 2:
        raise ValueError("rewrite expects a two-variable polynomial")
    if any(e % 2 for mono in p.terms for e in mono):
        raise RewriteFailed("quotient has an odd exponent; expected even in each variable")
    halved = Poly(2, {(mono[0] // 2, mono[1] // 2): c for mono, c in p.terms.items()})
    if halved.permute_variables([1, 0]) != halved:
        raise RewriteFailed("quotient is not symmetric in its variables")
    u = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    v = Poly(2, {(1, 1): Fraction(1)})
    out: Dict[Tuple[int, int], Fraction] = {}
    work = halved
    while not work.is_zero():
        mono, coeff = work.leading()
        a, b = mono
        if a < b:
            raise RewriteFailed(f"leading monomial {mono} cannot come from a symmetric polynomial")
        out[(a - b, b)] = coeff
        work = work - mul(u.pow(a - b), v.pow(b)).scale(coeff)
    return out


def _t_block_basis(d: int) -> Dict[Tuple[int, int], Fraction]:
    """Minus the degree-d block of T(3, 2) composed with (x+y, x-y) and
    normalized to unit forms, divided exactly by x^2 - y^2, in the basis
    u = x^2 + y^2, v = x^2 y^2.

    With m = (d-2)/2 the composed block is c_m m! times the sum over
    r+s=m of (x+y)^(2r+1) (x-y)^(2s+1) / ((2r+1)(2s+1) r! s!); swapping r
    and s makes it the minus/plus pair's edge table at inner degree m, so
    the block is that table scaled by -c_m m! / (S 2^(d/2))."""
    m = (d - 2) // 2
    table, scalar = _edge_table(True, m)
    scale = -c_coefficient(3, 2, m) * math.factorial(m) / (scalar << (d // 2))
    block = Poly(2, {mono: scale * c for mono, c in table.items()})
    quot = exact_divide_linear(block, Poly.linear_form(2, (1, -1)))
    quot = exact_divide_linear(quot, Poly.linear_form(2, (1, 1)))
    return _rewrite_even_symmetric(quot)


def check_t_positivity(d_max: int, d_min: int = 6) -> ConjectureReport:
    """For even degrees d in [6, d_max]: minus the degree-d block composed
    with (x+y, x-y) and normalized to unit forms, divided exactly by
    x^2 - y^2, must have non-negative coefficients in the basis
    u = x^2 + y^2, v = x^2 y^2.  The block is read off the minus/plus
    edge table of the type D folds (see _t_block_basis)."""
    started = time.perf_counter()
    if d_min < 6:
        raise ValueError("the positivity range starts at degree 6")
    if d_max < d_min:
        raise ValueError(f"max degree {d_max} is below the first degree {d_min}")
    witnesses: List[dict] = []
    degrees = [d for d in range(d_min, d_max + 1) if d % 2 == 0]
    for d in degrees:
        for (i, j), c in sorted(_t_block_basis(d).items()):
            if c < 0:
                witnesses.append({"degree": d, "u_power": i, "v_power": j, "coefficient": str(c)})
    params = {"degrees": degrees}
    return _finish("tPos", params, witnesses, [], False, started)
