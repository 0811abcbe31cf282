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
dominant_coefficients reads them off, and polyring.schur_combination then
expands the Schur combination.  The type D audits in conjectures read the
same c_lambda.

The full fold z_poly stays as the independent route that does not assume
the alternation: the structural audits and the tests check the quotients
against it (quotient_from_fold divides it by the Vandermonde).  It runs
serially, matching by matching, and multiplies each matching's per-edge
term lists one edge at a time, keeping only the degree-d total at the last
edge.  Both routes read the same per-edge tables, cleared once per degree
to one common denominator that is divided back out at the end, so the
matching loops are pure integer arithmetic.

An edge's share of a composed block at one inner degree is one integer
table (_edge_table), built once per edge layout and degree; it
is also the two-variable block that check t-pos in conjectures probes.
t_poly and compose_block build the blocks by direct composition instead;
they stay as the reference route (t_eval_on_structure, z_poly_reference)
that the tests compare the tables and the folds against.

All algebra runs on unnormalized integer root coordinates, which keeps
every coefficient rational.  Because the supported degrees always have the
same parity as the positive-root count, the normalization mismatch against
unit-length roots is an integer power of two, applied once to the
dominant coefficients (or to the divided fold), never inside the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import matchings as mt
from .matchings import (FoldGeometry, TwoStructure, count_matchings, enumerate_matchings,
                        fold_parameters)
from .polyring import (Poly, divide_by_vandermonde, mul, partitions, schur_combination,
                       substitute_linear)
from .rootsys import ArrangementSpec

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

    Straightforward reference path; z_poly multiplies the per-edge tables
    instead and is tested against this.
    """
    return compose_block(t, [Poly.linear_form(ambient, r.coords) for r in phi.positive_roots])


# ---------------------------------------------------------------------------
# per-edge tables: one edge's share of a composed block, by inner degree
# ---------------------------------------------------------------------------


# One cache entry per (layout, q) asked for.  The folds ask for q <= MAX_DEGREE / 2;
# check t-pos asks for q up to (max_degree - 2) / 2, and its --max-degree is user-set.
@lru_cache(maxsize=None)
def _edge_table(pair_forms: bool, q: int) -> Tuple[Dict[Tuple[int, int], int], int]:
    """One edge's share of a composed block at inner degree q, on integers:
    the coefficients keyed by the exponent pair (e_i, e_j), in descending
    key order without zeros, and the scalar S they are divided by.

    A single form (x - y) gives (x - y)^(2q+1) / ((2q+1) q!).  The
    minus/plus pair (x - y, x + y) gives

        sum over r+s=q of (x-y)^a (x+y)^b / (a b r! s!),  a = 2r+1, b = 2s+1,

    which is even in x and in y, so it has at most q+2 terms.  Over
    O = lcm(1, 3, .., 2q+1) every term is an integer: C(q, r) (O/a) (O/b)
    (x-y)^a (x+y)^b over O^2 q! (one form: (O/a) (x-y)^a over O q!).  The
    sum is reduced once, by the gcd of its coefficients and that scalar.
    """
    signs = (-1, 1) if pair_forms else (-1,)
    odd = math.lcm(*range(1, 2 * q + 2, 2))
    acc = [0] * (2 * q + len(signs) + 1)  # coefficient of x^e_i y^(degree - e_i), by e_i
    for comp in _compositions(q, len(signs)):
        term = [math.factorial(q) // math.prod(map(math.factorial, comp))]
        for r, sign in zip(comp, signs):
            a = 2 * r + 1
            power = [odd // a * math.comb(a, s) * sign ** (a - s) for s in range(a + 1)]
            grown = [0] * (len(term) + a)
            for i, c in enumerate(term):
                for j, p in enumerate(power):
                    grown[i + j] += c * p
            term = grown
        acc = [x + y for x, y in zip(acc, term)]
    scalar = odd ** len(signs) * math.factorial(q)
    g = math.gcd(scalar, *acc)
    degree = len(acc) - 1
    return {(e, degree - e): c // g for e, c in reversed(list(enumerate(acc))) if c}, scalar // g


@lru_cache(maxsize=None)  # bounded: m <= MAX_DEGREE / 2, two edge layouts
def _cleared_tables(pair_forms: bool, m: int) -> Tuple[Tuple[Dict[Tuple[int, int], int], ...], int]:
    """The edge tables for inner degrees q = 0..m over one denominator
    L = lcm(cleared[0..m]): table q is _edge_table(q) times L // cleared[q].
    Returned with L.

    A matching's share of the composed degree-d block is c_m m! times the
    sum over compositions q_1 + ... + q_E = m of the product of its edges'
    tables at q_t.  Over L every composition carries the same denominator
    L^E, so the products stay integers and the whole fold is scaled once by
    c_m m! / L^E at the end."""
    tables, cleared = zip(*(_edge_table(pair_forms, q) for q in range(m + 1)))
    lcm = math.lcm(*cleared)
    return tuple({key: c * (lcm // s) for key, c in table.items()}
                 for table, s in zip(tables, cleared)), lcm


def _fold_scale(spec: ArrangementSpec, geometry: FoldGeometry, m: int, lcm: int) -> Fraction:
    """c_m m! / L^E: the one scale of a fold summed over _cleared_tables."""
    return c_coefficient(spec.rank, geometry.k, m) * math.factorial(m) / lcm**geometry.nslots


def _check_threads(threads: int) -> None:
    """`threads` is kept in the signatures for callers and validated, but
    every computation here runs in the calling thread."""
    if threads < 0:
        raise ValueError("threads must be >= 0")


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
    unit forms).  Zero when d < k or d has the wrong parity.  `threads` is
    validated but unused: the fold runs in this process, and
    `progress(done, total)` counts the matchings visited.

    Each matching's product is built edge by edge over _cleared_tables: the
    partial products are kept by their running inner degree, and at the last
    edge only the completions to degree m are added to the fold.  Monomials
    are packed into ints, 8 bits per variable (exponents stay below 256 by
    the degree cap), so multiplying monomials adds keys."""
    _check_threads(threads)
    geometry = _admitted_geometry(spec, d)
    if geometry is None:
        return Poly.zero(spec.ambient_dim)
    m = (d - geometry.k) // 2
    tables, lcm = _cleared_tables(geometry.pair_forms, m)
    edge_terms: Dict[Tuple[int, int], List[Tuple[List[int], List[int]]]] = {}
    acc: Dict[int, int] = {}
    get = acc.get
    total = count_matchings(geometry.ground)
    for idx, matching in enumerate(enumerate_matchings(geometry.ground)):
        if progress is not None:
            progress(idx, total)
        for edge in matching.edges:
            if edge not in edge_terms:
                i, j = edge[0] - 1, edge[1] - 1
                edge_terms[edge] = [([(ei << 8 * i) | (ej << 8 * j) for ei, ej in table],
                                     list(table.values())) for table in tables]
        # keys[inner], coeffs[inner]: the products of the edges so far whose
        # inner degrees sum to `inner`, the matching's sign folded in
        sgn = mt.sign(matching)
        keys: List[List[int]] = [[0]] + [[] for _ in range(m)]
        coeffs: List[List[int]] = [[sgn]] + [[] for _ in range(m)]
        for edge in matching.edges[:-1]:
            terms = edge_terms[edge]
            grown_keys: List[List[int]] = [[] for _ in range(m + 1)]
            grown_coeffs: List[List[int]] = [[] for _ in range(m + 1)]
            for inner, (pk, pc) in enumerate(zip(keys, coeffs)):
                if pk:
                    for q in range(m + 1 - inner):
                        out_keys, out_coeffs = grown_keys[inner + q], grown_coeffs[inner + q]
                        for k2, c2 in zip(*terms[q]):
                            out_keys.extend([k1 + k2 for k1 in pk])
                            out_coeffs.extend([c1 * c2 for c1 in pc])
            keys, coeffs = grown_keys, grown_coeffs
        last = edge_terms[matching.edges[-1]]
        for inner, (pk, pc) in enumerate(zip(keys, coeffs)):
            for k2, c2 in zip(*last[m - inner]):
                for k1, c1 in zip(pk, pc):
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
    if progress is not None:
        progress(total, total)
    scale = _fold_scale(spec, geometry, m, lcm)
    ground = geometry.ground
    return Poly(ground, {tuple((key >> 8 * i) & 0xFF for i in range(ground)): scale * val
                         for key, val in acc.items() if val})


def z_poly_reference(spec: ArrangementSpec, d: int) -> Poly:
    """Same value as z_poly via the direct per-structure composition
    (t_poly composed with each subsystem's forms), without the per-edge
    tables; for cross-checking."""
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


def dominant_coefficients(spec: ArrangementSpec, d: int,
                          progress: Optional[Callable[[int, int], None]] = None
                          ) -> Dict[Tuple[int, ...], Fraction]:
    """The nonzero c_lambda of the degree-d fold, keyed by partitions as
    `partitions` yields them: the coefficient on a^(lambda+delta) (type A)
    or a^(2(lambda+delta)) (type D), delta = (ground-1, ..., 0), normalized
    by 2^-((d - |roots|)/2) as in quotient.  |lambda| is d - |roots| (type
    A) or half of it (type D); empty below the root count or when the fold
    is zero by parity.  `progress(done, total)` counts the matchings visited.

    Edge (i, j) of a matching touches only a_i and a_j, so a matching
    contributes to a target monomial mu through one composition only: edge
    t takes inner degree q_t = (mu_i + mu_j - 1)/2 (single form) or
    (mu_i + mu_j - 2)/2 (minus/plus pair), and an isolated vertex needs
    exponent 0.  The contribution is the product of the edges' entries of
    _cleared_tables on (mu_i, mu_j); the signed integer products are summed
    per target and scaled once at the end.  The exponents of mu are
    distinct, so mu_i + mu_j >= 1 (>= 2 for pairs) and every q_t lies in
    0..m; a q_t of the wrong parity finds no table entry.
    """
    geometry = _admitted_geometry(spec, d)
    shift = d - spec.positive_root_count
    if geometry is None or shift < 0:
        return {}
    assert shift % 2 == 0, "supported degrees share parity with the root count"
    size = shift // 2 if geometry.pair_forms else shift
    ground = geometry.ground
    m = (d - geometry.k) // 2
    # targets are stretched by the forms per edge, and so are an edge's table degrees 2q + forms
    stretch = 2 if geometry.pair_forms else 1
    tables, lcm = _cleared_tables(geometry.pair_forms, m)
    lams = list(partitions(size, ground))
    targets = []
    for lam in lams:
        padded = lam + (0,) * (ground - len(lam))
        targets.append(tuple(stretch * (part + ground - 1 - i) for i, part in enumerate(padded)))
    sums = [0] * len(targets)

    total = count_matchings(ground)
    if progress is not None:
        progress(0, total)
    for visited, matching in enumerate(enumerate_matchings(ground), start=1):
        sgn = mt.sign(matching)
        edges = [(i - 1, j - 1) for i, j in matching.edges]
        isolated = None if matching.isolated is None else matching.isolated - 1
        for t, mu in enumerate(targets):
            if isolated is not None and mu[isolated]:
                continue
            prod = sgn
            for i, j in edges:
                c = tables[(mu[i] + mu[j] - stretch) >> 1].get((mu[i], mu[j]))
                if c is None:
                    break
                prod *= c
            else:
                sums[t] += prod
        if progress is not None:
            progress(visited, total)

    scale = _fold_scale(spec, geometry, m, lcm) / (1 << (shift // 2))
    return {lam: scale * value for lam, value in zip(lams, sums) if value}


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
    _check_threads(threads)
    coeffs = dominant_coefficients(spec, d, progress)
    geometry = fold_parameters(spec)
    return schur_combination(coeffs, geometry.ground, squared=geometry.pair_forms)


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
