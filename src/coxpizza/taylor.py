"""Symbolic core: exact multivariate Taylor data for arrangement volumes.

The degree-d block T_d is a polynomial in k variables (one per orthogonal
unit form).  Composing T_d with the linear forms of each matching-indexed
orthogonal subsystem and folding with the matching signs gives the degree-d
polynomial Z_d; its quotient by the arrangement Jacobian, with the
power-of-two normalization fixed, is what the reports carry.

The quotient is computed without expanding Z_d.  Z_d is alternating (in
the squared variables for type D), so Z_d = sum c_lambda a_(lambda+delta)
and the quotient is sum c_lambda s_lambda by the bialternant formula.  Each
edge of a matching touches two variables only, so a matching's share of one
dominant coefficient c_lambda is a single product of per-edge coefficients;
polyring.schur_combination then expands the Schur combination.

The full fold z_poly stays as the independent route that does not assume
the alternation: the structural audits, the y_poly fold and the tests
check the quotients against it (quotient_from_fold divides it by the
Vandermonde).  Its per-matching composition work is delegated to an
accumulation kernel operating on packed exponent keys and integer
coefficients; denominators are cleared up front per degree and divided
back out once at the end, so the fold itself is pure integer arithmetic and
its result is independent of how matchings are chunked across workers.

All algebra runs on unnormalized integer root coordinates, which keeps
every coefficient rational.  Because the supported degrees always have the
same parity as the positive-root count, the normalization mismatch against
unit-length roots is an integer power of two, applied once to the quotient
(and to the reduced fold y_poly), never inside the pipeline.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import matchings as mt
from ._kernel import accumulate_tensor, unpack_exponents
from .matchings import (FoldGeometry, TwoStructure, count_matchings, enumerate_matchings,
                        fold_parameters)
from .polyring import (Poly, divide_by_vandermonde, mul, partitions, schur_combination,
                       substitute_linear)
from .rootsys import ArrangementSpec, make_spec

MAX_DEGREE = 60
MAX_MONOMIAL_INSTANCES = 10**8


class ParityRegimeError(ValueError):
    """Arrangement outside the regime where the symbolic expansion applies
    (hyperplane count and dimension must differ in parity)."""


class ResourceCapExceeded(RuntimeError):
    """Requested computation exceeds the configured size guards."""


# ---------------------------------------------------------------------------
# Taylor blocks
# ---------------------------------------------------------------------------


def c_coefficient(n: int, k: int, m: int) -> Fraction:
    """Binomial-series coefficient (-1)^m * C((n-k)/2, m), exact.

    C(alpha, m) is the falling-factorial product alpha(alpha-1)...(alpha-m+1)/m!,
    so the value is rational even for half-integer alpha.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    alpha = Fraction(n - k, 2)
    prod = Fraction(1)
    for i in range(m):
        prod *= alpha - i
    value = prod / math.factorial(m)
    return -value if m % 2 else value


@dataclass(frozen=True)
class TPoly:
    """Degree-d Taylor block in k variables, for ambient dimension n.

    Zero when d < k or d has opposite parity to k; otherwise symmetric in
    its k variables, odd in each, homogeneous of degree d."""

    n: int
    k: int
    d: int
    body: Poly


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Ordered compositions of total into `parts` non-negative parts,
    first coordinate descending (fixed, reproducible order)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def t_poly(n: int, k: int, d: int) -> TPoly:
    """The degree-d block: c_m * sum over r_1+..+r_k = m of the multinomial
    times prod x_i^(2 r_i + 1)/(2 r_i + 1), with m = (d - k)/2."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if d < k or (d - k) % 2:
        return TPoly(n, k, d, Poly.zero(k))
    m = (d - k) // 2
    c = c_coefficient(n, k, m)
    m_fact = math.factorial(m)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for comp in _compositions(m, k):
        coeff = c * m_fact
        for r in comp:
            coeff /= math.factorial(r) * (2 * r + 1)
        if coeff:
            terms[tuple(2 * r + 1 for r in comp)] = coeff
    return TPoly(n, k, d, Poly(k, terms))


def compose_block(t: TPoly, forms: Sequence[Poly]) -> Poly:
    """Substitute the block's variables by the given polynomials, expanded
    (form powers memoized)."""
    if len(forms) != t.k:
        raise ValueError(f"got {len(forms)} forms, block expects {t.k}")
    arity = forms[0].arity
    powers: Dict[Tuple[int, int], Poly] = {}

    def form_power(i: int, e: int) -> Poly:
        key = (i, e)
        if key not in powers:
            powers[key] = forms[i].pow(e)
        return powers[key]

    result = Poly.zero(arity)
    for mono, coeff in t.body.terms.items():
        piece = Poly.constant(arity, coeff)
        for i, e in enumerate(mono):
            if e:
                piece = mul(piece, form_power(i, e))
        result = result + piece
    return result


def t_eval_on_structure(t: TPoly, phi: TwoStructure, ambient: int) -> Poly:
    """Compose a Taylor block with the integer linear forms of an orthogonal
    subsystem, expanded in the ambient variables.

    Straightforward reference path; the production fold in z_poly uses the
    packed kernel instead and is tested against this.
    """
    return compose_block(t, [Poly.linear_form(ambient, r.coords) for r in phi.positive_roots])


# ---------------------------------------------------------------------------
# fold plans: per-degree precomputation for the accumulation kernel
# ---------------------------------------------------------------------------


@dataclass
class _FoldPlan:
    pair_forms: bool  # one form per edge (type A) or a minus/plus pair (type D)
    ground: int  # matched vertices, one variable each
    k: int
    nslots: int
    m: int
    comps: List[Tuple[int, ...]]
    scales: List[int]
    denom: int
    abstract: List[List[Tuple[int, int, int]]]  # q -> [(exp_i, exp_j, coeff)]


def _abstract_single(q: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """Expansion of (x - y)^(2q+1) and the cleared scalar (2q+1)*q!."""
    e = 2 * q + 1
    entries = [(s, e - s, (-1 if (e - s) % 2 else 1) * math.comb(e, s)) for s in range(e, -1, -1)]
    return entries, (2 * q + 1) * math.factorial(q)


def _abstract_pair(q: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """Aggregated minus/plus pair at inner degree q:

        sum over r+s=q of (x-y)^(2r+1) (x+y)^(2s+1) / ((2r+1)(2s+1) r! s!)

    returned with denominators cleared by their lcm.  The symmetrized sum is
    even in x and in y, so it collapses to at most q+2 terms.
    """
    acc: Dict[Tuple[int, int], Fraction] = {}
    for r in range(q + 1):
        s = q - r
        a, b = 2 * r + 1, 2 * s + 1
        weight = Fraction(1, a * b * math.factorial(r) * math.factorial(s))
        for s1 in range(a + 1):
            c1 = (-1 if (a - s1) % 2 else 1) * math.comb(a, s1)
            for s2 in range(b + 1):
                key = (s1 + s2, a + b - s1 - s2)
                val = acc.get(key, Fraction(0)) + weight * c1 * math.comb(b, s2)
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
    scalar = math.lcm(*(c.denominator for c in acc.values()))
    entries = []
    for (ei, ej), c in sorted(acc.items(), reverse=True):
        scaled = c * scalar
        assert scaled.denominator == 1
        entries.append((ei, ej, scaled.numerator))
    return entries, scalar


def _build_plan(family: str, rank: int, d: int, kind: str) -> _FoldPlan:
    geometry = fold_parameters(make_spec(family, rank))
    if kind == "z":
        ground = geometry.ground
    elif kind == "y":
        ground = geometry.ground - 1  # perfect matchings of {1..n-1}
    else:
        raise ValueError(f"unknown fold kind {kind!r}")
    pair_forms = geometry.pair_forms
    k = geometry.k
    nslots = ground // 2
    m = (d - k) // 2

    abstract: List[List[Tuple[int, int, int]]] = []
    cleared: List[int] = []
    for q in range(m + 1):
        entries, scalar = _abstract_pair(q) if pair_forms else _abstract_single(q)
        abstract.append(entries)
        cleared.append(scalar)

    c_m = c_coefficient(rank, k, m)
    m_fact = math.factorial(m)
    comps = list(_compositions(m, nslots))
    factors = []
    for comp in comps:
        f = c_m * m_fact
        for q in comp:
            f /= cleared[q]
        factors.append(f)
    denom = math.lcm(*(f.denominator for f in factors)) if factors else 1
    scales = []
    for f in factors:
        scaled = f * denom
        assert scaled.denominator == 1
        scales.append(scaled.numerator)
    return _FoldPlan(pair_forms, ground, k, nslots, m, comps, scales, denom, abstract)


@lru_cache(maxsize=8)
def _plan_cached(family: str, rank: int, d: int, kind: str) -> _FoldPlan:
    return _build_plan(family, rank, d, kind)


def _edge_lists(plan: _FoldPlan, memo: dict, i0: int, j0: int):
    """Packed key/coefficient lists for one edge, shared across matchings."""
    hit = memo.get((i0, j0))
    if hit is not None:
        return hit
    keys_by_q = []
    coeffs_by_q = []
    for entries in plan.abstract:
        keys_by_q.append([(ei << (8 * i0)) | (ej << (8 * j0)) for ei, ej, _ in entries])
        coeffs_by_q.append([c for _, _, c in entries])
    memo[(i0, j0)] = (keys_by_q, coeffs_by_q)
    return memo[(i0, j0)]


def _fold_range(plan: _FoldPlan, chunk: int, nchunks: int,
                progress: Optional[Callable[[int, int], None]] = None) -> Dict[int, int]:
    """Accumulate the signed fold over matchings with index = chunk (mod nchunks)."""
    acc: Dict[int, int] = {}
    memo: dict = {}
    total = count_matchings(plan.ground)
    for idx, matching in enumerate(enumerate_matchings(plan.ground)):
        if idx % nchunks != chunk:
            continue
        if progress is not None:
            progress(idx, total)
        slot_keys = []
        slot_coeffs = []
        for i, j in matching.edges:
            keys_by_q, coeffs_by_q = _edge_lists(plan, memo, i - 1, j - 1)
            slot_keys.append(keys_by_q)
            slot_coeffs.append(coeffs_by_q)
        accumulate_tensor(acc, slot_keys, slot_coeffs, plan.comps, plan.scales, mt.sign(matching))
    if progress is not None:
        progress(total, total)
    return acc


def _fold_chunk_worker(args) -> Dict[int, int]:
    family, rank, d, kind, chunk, nchunks = args
    plan = _plan_cached(family, rank, d, kind)
    return _fold_range(plan, chunk, nchunks)


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValueError("threads must be >= 0")
    return threads if threads else (os.cpu_count() or 1)


def _run_fold(family: str, rank: int, d: int, kind: str, threads: int,
              progress: Optional[Callable[[int, int], None]]) -> Tuple[Dict[int, int], _FoldPlan]:
    plan = _plan_cached(family, rank, d, kind)
    nchunks = _resolve_threads(threads)
    if nchunks <= 1:
        return _fold_range(plan, 0, 1, progress), plan
    acc: Dict[int, int] = {}
    total = count_matchings(plan.ground)
    jobs = [(family, rank, d, kind, c, nchunks) for c in range(nchunks)]
    workers = min(nchunks, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = 0
        for partial in pool.map(_fold_chunk_worker, jobs):
            for key, val in partial.items():
                merged = acc.get(key, 0) + val
                if merged:
                    acc[key] = merged
                else:
                    acc.pop(key, None)
            done += 1
            if progress is not None:
                progress(min(total, done * ((total + nchunks - 1) // nchunks)), total)
    return acc, plan


def _poly_from_acc(acc: Dict[int, int], plan: _FoldPlan) -> Poly:
    denom = plan.denom
    terms = {}
    for key, val in acc.items():
        if val:
            terms[unpack_exponents(key, plan.ground)] = Fraction(val, denom)
    return Poly(plan.ground, terms)


# ---------------------------------------------------------------------------
# public fold operations
# ---------------------------------------------------------------------------


def _require_symbolic_regime(spec: ArrangementSpec) -> None:
    if spec.family == "A":
        if spec.rank % 4 not in (2, 3):
            raise ParityRegimeError(
                f"type A rank {spec.rank}: hyperplane count and dimension share parity; "
                "the expansion vanishes there (use the numeric oracle)"
            )
    elif spec.family == "D":
        if spec.rank % 2 == 0:
            raise ParityRegimeError(
                f"type D rank {spec.rank}: even rank is outside the expansion regime"
            )
    else:
        raise ParityRegimeError(f"family {spec.family} has no symbolic expansion here")


def _guard_resources(ground: int, nslots: int, d: int) -> None:
    if d > MAX_DEGREE:
        raise ResourceCapExceeded(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    instances = count_matchings(ground) * (2**nslots)
    if instances > MAX_MONOMIAL_INSTANCES:
        raise ResourceCapExceeded(
            f"fold over {count_matchings(ground)} matchings x 2^{nslots} forms "
            f"= {instances} monomial instances exceeds the cap of {MAX_MONOMIAL_INSTANCES}"
        )


def _admitted_geometry(spec: ArrangementSpec, d: int) -> Optional[FoldGeometry]:
    """The fold geometry when the degree-d fold is admitted and not zero by
    parity (d < k or d - k odd gives None); raises for arrangements outside
    the symbolic regime, negative degrees and oversize jobs."""
    _require_symbolic_regime(spec)
    geometry = fold_parameters(spec)
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d < geometry.k or (d - geometry.k) % 2:
        return None
    _guard_resources(geometry.ground, geometry.nslots, d)
    return geometry


def z_poly(spec: ArrangementSpec, d: int, threads: int = 1,
           progress: Optional[Callable[[int, int], None]] = None) -> Poly:
    """The signed fold over all maximal matchings of the composed degree-d
    blocks, on unnormalized integer forms (carries 2^(d/2) relative to
    unit forms).  Zero when d < k or d has the wrong parity."""
    if _admitted_geometry(spec, d) is None:
        return Poly.zero(spec.ambient_dim)
    acc, plan = _run_fold(spec.family, spec.rank, d, "z", threads, progress)
    return _poly_from_acc(acc, plan)


def z_poly_reference(spec: ArrangementSpec, d: int) -> Poly:
    """Same value as z_poly via the direct per-structure composition;
    independent of the packed kernel, for cross-checking."""
    _require_symbolic_regime(spec)
    geometry = fold_parameters(spec)
    if d < geometry.k or (d - geometry.k) % 2:
        return Poly.zero(spec.ambient_dim)
    block = t_poly(spec.rank, geometry.k, d)
    total = Poly.zero(spec.ambient_dim)
    for matching in enumerate_matchings(geometry.ground):
        phi = mt.two_structure(spec, matching)
        piece = t_eval_on_structure(block, phi, spec.ambient_dim)
        total = total + piece.scale(mt.sign(matching))
    return total


def quotient_from_fold(spec: ArrangementSpec, d: int, z: Poly) -> Poly:
    """Quotient derivation from an already-computed degree-d fold: exact
    Vandermonde division then the 2^-((d - |roots|)/2) normalization."""
    if z.is_zero():
        return z
    phi_plus = spec.positive_root_count
    q = divide_by_vandermonde(z, range(z.arity), squared=(spec.family == "D"))
    shift = d - phi_plus
    assert shift % 2 == 0, "supported degrees share parity with the root count"
    half = shift // 2
    return q.scale(Fraction(1, 1 << half)) if half >= 0 else q.scale(1 << (-half))


@lru_cache(maxsize=None)  # bounded: q <= MAX_DEGREE / 2, two edge layouts
def _edge_table(pair_forms: bool, q: int) -> Tuple[Dict[Tuple[int, int], int], int]:
    """One edge's cleared coefficients at inner degree q, keyed by the
    exponent pair (e_i, e_j), and the scalar cleared from them."""
    entries, scalar = _abstract_pair(q) if pair_forms else _abstract_single(q)
    return {(ei, ej): c for ei, ej, c in entries}, scalar


def _dominant_coefficients(spec: ArrangementSpec, geometry: FoldGeometry, d: int, size: int,
                           progress: Optional[Callable[[int, int], None]]
                           ) -> Dict[Tuple[int, ...], Fraction]:
    """c_lambda for every partition lambda of `size` into at most `ground`
    parts: the coefficient of the degree-d fold on a^(lambda+delta) (type A)
    or a^(2(lambda+delta)) (type D), delta = (ground-1, ..., 0).

    Edge (i, j) of a matching touches only a_i and a_j, so a matching
    contributes to a target monomial mu through one composition only: edge
    t takes inner degree q_t = (mu_i + mu_j - 1)/2 (single form) or
    (mu_i + mu_j - 2)/2 (minus/plus pair), and an isolated vertex needs
    exponent 0.  The contribution is the product of the edges' coefficients
    on (mu_i, mu_j) times the composition's scale c_m m! / prod cleared[q_t],
    which depends only on the multiset of the q_t; the signed integer
    products are summed per multiset and scaled once at the end.  The
    exponents of mu are distinct, so mu_i + mu_j >= 1 (>= 2 for pairs) and
    every q_t lies in 0..m; a q_t of the wrong parity finds no table entry.
    """
    ground = geometry.ground
    m = (d - geometry.k) // 2
    stretch = 2 if geometry.pair_forms else 1
    offset = 2 if geometry.pair_forms else 1
    lookups, cleared = zip(*(_edge_table(geometry.pair_forms, q) for q in range(m + 1)))
    lams = list(partitions(size, ground))
    targets = []
    for lam in lams:
        padded = lam + (0,) * (ground - len(lam))
        targets.append(tuple(stretch * (part + ground - 1 - i) for i, part in enumerate(padded)))
    sums: List[Dict[Tuple[int, ...], int]] = [{} for _ in targets]

    total = count_matchings(ground)
    if progress is not None:
        progress(0, total)
    for visited, matching in enumerate(enumerate_matchings(ground), start=1):
        sgn = mt.sign(matching)
        edges = [(i - 1, j - 1) for i, j in matching.edges]
        isolated = None if matching.isolated is None else matching.isolated - 1
        for mu, acc in zip(targets, sums):
            if isolated is not None and mu[isolated]:
                continue
            prod = sgn
            qs = []
            for i, j in edges:
                q = (mu[i] + mu[j] - offset) >> 1
                c = lookups[q].get((mu[i], mu[j]))
                if c is None:
                    break
                prod *= c
                qs.append(q)
            else:
                key = tuple(sorted(qs))
                acc[key] = acc.get(key, 0) + prod
        if progress is not None:
            progress(visited, total)

    base = c_coefficient(spec.rank, geometry.k, m) * math.factorial(m)
    scales: Dict[Tuple[int, ...], Fraction] = {}
    coeffs: Dict[Tuple[int, ...], Fraction] = {}
    for lam, acc in zip(lams, sums):
        value = Fraction(0)
        for qs, count in acc.items():
            if count:
                if qs not in scales:
                    scales[qs] = base / math.prod(cleared[q] for q in qs)
                value += scales[qs] * count
        if value:
            coeffs[lam] = value
    return coeffs


def quotient(spec: ArrangementSpec, d: int, threads: int = 1,
             progress: Optional[Callable[[int, int], None]] = None) -> Poly:
    """Exact quotient of the degree-d fold by the Jacobian, normalized so the
    result matches the unit-root convention (the factor 2^-((d - |roots|)/2)).

    The fold is alternating (in the squared variables for type D), so it is
    sum c_lambda a_(lambda+delta) and the quotient is sum c_lambda s_lambda
    by the bialternant formula; only the dominant coefficients c_lambda are
    extracted from the matchings, and neither the full fold nor a division
    is computed.  Equal to quotient_from_fold(spec, d, z_poly(spec, d)).
    `threads` is validated but unused: the extraction runs in this process,
    and `progress(done, total)` counts the matchings visited."""
    geometry = _admitted_geometry(spec, d)
    _resolve_threads(threads)
    shift = d - spec.positive_root_count
    if geometry is None or shift < 0:
        return Poly.zero(spec.ambient_dim)
    assert shift % 2 == 0, "supported degrees share parity with the root count"
    size = shift // 2 if geometry.pair_forms else shift
    coeffs = _dominant_coefficients(spec, geometry, d, size, progress)
    norm = Fraction(1, 1 << (shift // 2))
    return schur_combination({lam: c * norm for lam, c in coeffs.items()}, geometry.ground,
                             squared=geometry.pair_forms)


def reduce_mod_relation(p: Poly, spec: ArrangementSpec) -> Poly:
    """Canonical representative of p modulo a_1 + ... + a_(n+1) = 0 (type A):
    substitutes the last variable by minus the sum of the others."""
    if spec.family != "A":
        raise ValueError("the sum-to-zero relation applies to type A only")
    if p.arity != spec.ambient_dim:
        raise ValueError(f"polynomial arity {p.arity} does not match {spec}")
    last = p.arity - 1
    form = Poly.linear_form(p.arity, [-1] * last + [0])
    return substitute_linear(p, last, form)


def y_poly(n: int, d: int, threads: int = 1) -> Poly:
    """Signed fold over perfect matchings of {1..n-1} of the degree-d blocks
    on the minus/plus pair forms, in n-1 variables (n odd), normalized by
    the same power-of-two convention as quotient: 2^-((d - n(n-1))/2).

    Its strictly-decreasing-exponent coefficients agree with those of the
    full n-variable fold at the same normalization."""
    if n < 3 or n % 2 == 0:
        raise ParityRegimeError("y_poly needs odd n >= 3")
    k = n - 1
    if d < k or (d - k) % 2:
        return Poly.zero(n - 1)
    _guard_resources(n - 1, (n - 1) // 2, d)
    acc, plan = _run_fold("D", n, d, "y", threads, None)
    raw = _poly_from_acc(acc, plan)
    half = (d - n * (n - 1)) // 2
    assert (d - n * (n - 1)) % 2 == 0
    return raw.scale(Fraction(1, 1 << half)) if half >= 0 else raw.scale(1 << (-half))


# ---------------------------------------------------------------------------
# expansion reports
# ---------------------------------------------------------------------------


@dataclass
class ReportEntry:
    degree: int
    quotient: Poly
    reduced_quotient: Optional[Poly]  # type A: representative mod sum = 0


@dataclass
class ExpansionReport:
    spec: ArrangementSpec
    k: int
    phi_plus_count: int
    entries: List[ReportEntry]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": self.spec.family,
            "rank": self.spec.rank,
            "k": self.k,
            "phi_plus": self.phi_plus_count,
            "prefactor": {"two_power": self.k, "ball_dim": self.spec.rank - self.k},
            "entries": [
                {
                    "degree": e.degree,
                    "quotient_terms": serialize_terms(e.quotient),
                    "reduced_quotient_terms": (
                        serialize_terms(e.reduced_quotient) if e.reduced_quotient is not None else None
                    ),
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"family {self.spec.family}_{self.spec.rank}: k={self.k}, "
            f"positive roots={self.phi_plus_count}"
        ]
        for e in self.entries:
            shown = e.reduced_quotient if e.reduced_quotient is not None else e.quotient
            lines.append(f"  degree {e.degree}: {render_quotient(shown)}")
        return "\n".join(lines)


def serialize_terms(poly: Poly) -> List[dict]:
    return [
        {"exponents": list(mono), "num": coeff.numerator, "den": coeff.denominator}
        for mono, coeff in poly.sorted_terms()
    ]


def power_sum_multiple(poly: Poly) -> Optional[Fraction]:
    """If poly == c * (a_1^2 + ... + a_r^2), return c, else None."""
    if len(poly) != poly.arity:
        return None
    coeff = None
    seen = set()
    for mono, c in poly.terms.items():
        if sum(mono) != 2 or max(mono) != 2:
            return None
        seen.add(mono.index(2))
        if coeff is None:
            coeff = c
        elif coeff != c:
            return None
    return coeff if len(seen) == poly.arity else None


def render_quotient(poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    if poly.degree() == 0:
        return str(next(iter(poly.terms.values())))
    c = power_sum_multiple(poly)
    if c is not None:
        return f"{c} * (a1^2 + ... + a{poly.arity}^2)"
    return poly.to_text()


def expansion_report(spec: ArrangementSpec, degrees: Sequence[int], threads: int = 1,
                     progress: Optional[Callable[[int, int], None]] = None) -> ExpansionReport:
    """Quotients (and, for type A, representatives modulo the sum relation)
    at each requested degree."""
    k = fold_parameters(spec).k
    entries = []
    for d in degrees:
        q = quotient(spec, d, threads, progress)
        reduced = reduce_mod_relation(q, spec) if spec.family == "A" else None
        entries.append(ReportEntry(d, q, reduced))
    return ExpansionReport(spec, k, spec.positive_root_count, entries)
