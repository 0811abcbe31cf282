"""Symbolic core: exact multivariate Taylor data for arrangement volumes.

The degree-d block T_d is a polynomial in k variables (one per orthogonal
unit form).  Composing T_d with the linear forms of each matching-indexed
orthogonal subsystem and folding with the matching signs gives the degree-d
polynomial Z_d; its quotient by the arrangement Jacobian, with the
power-of-two normalization fixed, is what the reports carry.

The quotient is computed without expanding Z_d.  Z_d is alternating (in
the squared variables for type D), so Z_d = 2^s sum c_lambda a_(lambda+delta)
with s = (d - |Phi+|) / 2, the Schur shift of FoldGeometry.schur_shift, and
lambda + delta from polyring.alternant_exponents, and the quotient is
sum c_lambda s_lambda by the bialternant formula.  Each
edge of a matching touches two variables only, so a matching's share of one
dominant coefficient c_lambda is a single product of per-edge coefficients,
and the signed sum over the matchings is a Pfaffian (Stembridge, Adv. Math.
83, 1990): dominant_coefficients takes one per target, visiting no matching.
The quotient is symmetric, so expansion_report keeps it on its
sorted-monomial coefficients, reduces the type A quotient modulo the sum
relation on them, and the reports write their terms straight from them: no
command builds a Poly.  reduce_mod_relation, which substitutes into the
expanded quotient, is the reference route of that reduction (the tests and
the benchmark's relation gate call it).  The type D audits in conjectures
read the same c_lambda.

The full fold z_poly expands Z_d without assuming the alternation.  No
command reads it: it is the reference route of the tests, which check the
quotients against it (quotient_from_fold divides it by the Vandermonde),
and of the benchmark's deep-expand gates.  It runs serially, matching by
matching, and multiplies each matching's per-edge term lists one edge at a
time, keeping only the degree-d total at the last edge.  Both routes read
the same per-edge tables (the Pfaffians only those their targets reach),
cleared to one common denominator that is divided back out at the end, so
the fold's loop and the Pfaffians are pure integer arithmetic.

An edge's share of a composed block at one inner degree is one integer
table (_edge_table) from a closed form, built once per edge layout and
degree; it is also the two-variable block that check t-pos probes.  The
reference routes by direct composition (edge_table_by_composition, t_poly,
compose_block, z_poly_reference) live in tests/reference.py.

All algebra runs on unnormalized integer root coordinates, which keeps
every coefficient rational.  The normalization mismatch against
unit-length roots is 2^s, s the Schur shift, applied once to the dominant
coefficients (or to the divided fold), never inside the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import matchings as mt
from .matchings import (FoldGeometry, c_coefficient, count_matchings, enumerate_matchings,
                        fold_parameters)
from .polyring import (Monomial, Partition, Poly, alternant_exponents, divide_by_vandermonde,
                       format_terms, monomial_coefficients, monomial_terms, partitions,
                       reduce_symmetric_mod_sum, spread_monomials, substitute_linear)
from .rootsys import ArrangementSpec

MAX_DEGREE = 60  # z_poly's guards: 8-bit exponent packing, and the matchings it visits
MAX_MONOMIAL_INSTANCES = 10**8
MAX_QUOTIENT_WORK = 5 * 10**7  # dominant_coefficients' steps: a few s at 1e7 to 2.5e7 a second


class ParityRegimeError(ValueError):
    """Arrangement outside the regime where the symbolic expansion applies
    (hyperplane count and dimension must differ in parity)."""


class ResourceCapExceeded(ValueError):
    """A refusal: the requested computation exceeds a configured size guard."""


# ---------------------------------------------------------------------------
# per-edge tables: one edge's share of a composed block, by inner degree
# ---------------------------------------------------------------------------


# One entry per (layout, q) asked for, the only copy of the tables (all of q <= 367: 27 MB for
# one form, 16 MB for the pair): q <= MAX_DEGREE / 2 (folds), q <= 367 by MAX_QUOTIENT_WORK
# (quotients, up to their largest target's q; check t-pos, whose --max-degree stops at 737).
@lru_cache(maxsize=None)
def _edge_table(pair_forms: bool, q: int) -> Tuple[Dict[Tuple[int, int], int], int]:
    """One edge's share of a composed block at inner degree q, on integers:
    the coefficients keyed by the exponent pair (e_i, e_j), in descending
    key order without zeros, and the scalar S they are divided by.

    A single form (x - y) gives (x - y)^a / (a q!), a = 2q+1: the binomial
    row C(a, e) (-1)^(a-e) on x^e y^(a-e), over S = a q!.  The minus/plus
    pair (u, v) = (x - y, x + y) gives, of degree D = 2q+2,

        P_q = sum over r+s=q of u^a v^b / (a b r! s!),  a = 2r+1, b = 2s+1.

    Its d_u d_v is (u^2 + v^2)^q / q! = 2^q (x^2 + y^2)^q / q!, and
    d_u d_v = (d_x^2 - d_y^2) / 4, so the coefficients p_e of x^e y^(D-e)
    (e even: P_q is even in x and in y) satisfy

        e (e-1) p_e = (D-e+2) (D-e+1) p_(e-2) + 4 2^q C(q, e/2 - 1) / q!

    from p_0 = P_q(0, 1) = -sum over r of 1 / (a b r! s!).  Over
    S = O^2 q!, O = lcm(1, 3, .., 2q+1), each term C(q, r) (O/a) (O/b) u^a v^b
    of S P_q is an integer, so every S p_e is, and each step's division by
    e (e-1) is exact.  The table is reduced once, by the gcd with S.
    """
    if pair_forms:
        degree, odd = 2 * q + 2, math.lcm(*range(1, 2 * q + 2, 2))
        scalar, step = odd * odd * math.factorial(q), 2
        rhs = 4 * 2**q * odd * odd  # S 4 2^q / q!
        row = [-sum(math.comb(q, r) * (odd // (2 * r + 1)) * (odd // (2 * (q - r) + 1))
                    for r in range(q + 1))]
        for e in range(2, degree + 1, 2):
            row.append(((degree - e + 2) * (degree - e + 1) * row[-1]
                        + rhs * math.comb(q, e // 2 - 1)) // (e * (e - 1)))
    else:
        degree = 2 * q + 1
        scalar, step = degree * math.factorial(q), 1
        row = [-1]  # C(a, e+1) = C(a, e) (a-e) / (e+1), one exact division a step
        for e in range(degree):
            row.append(-row[-1] * (degree - e) // (e + 1))
    g = math.gcd(scalar, *row)
    return {(step * i, degree - step * i): c // g
            for i, c in reversed(list(enumerate(row))) if c}, scalar // g


def _cleared_tables(pair_forms: bool, top: int) -> Tuple[Tuple[Dict, ...], int, List[int]]:
    """(tables, L, factors) of the edge tables q = 0..top cleared to one
    denominator: L is the lcm of their scalars S_q, and table q times
    factors[q] = L // S_q is table q over L, as _fold_scale reads it."""
    tables, scalars = zip(*(_edge_table(pair_forms, q) for q in range(top + 1)))
    lcm = math.lcm(*scalars)
    return tables, lcm, [lcm // s for s in scalars]


def _fold_scale(spec: ArrangementSpec, geometry: FoldGeometry, m: int, lcm: int) -> Fraction:
    """c_m m! / L^E: the one scale of a fold over edge tables cleared to one
    denominator L, table q times L // S_q (S_q its scalar).

    A matching's share of the composed degree-d block is c_m m! times the
    sum over compositions q_1 + ... + q_E = m of the product of its edges'
    tables at q_t.  Over L every composition carries the same denominator
    L^E, so the products stay integers and the fold is scaled once at the end."""
    return c_coefficient(spec.rank, geometry.k, m) * math.factorial(m) / lcm**geometry.nslots


def _check_threads(threads: int) -> None:
    """`threads` is kept in the signatures for callers and validated, but
    every computation here runs in the calling thread."""
    if threads < 0:
        raise ValueError("threads must be >= 0")


# ---------------------------------------------------------------------------
# public fold operations
# ---------------------------------------------------------------------------


def _require_symbolic_regime(spec: ArrangementSpec) -> FoldGeometry:
    """The fold geometry of an arrangement in the paper's regime, the one
    place it is written: type A of rank 2 or 3 mod 4 and type D of odd rank,
    where |Phi+| and the rank differ in parity and the first Taylor term can
    be nonzero.  The expansion, the sign checks and the type D audits refuse
    every other arrangement: a family without a matching fold by
    fold_parameters, the others here."""
    geometry = fold_parameters(spec)
    if spec.family == "A":
        if spec.rank % 4 not in (2, 3):
            raise ParityRegimeError(
                f"type A rank {spec.rank}: hyperplane count and dimension share parity, so the "
                "first Taylor term vanishes; the expansion and the sign conjecture need rank 2 or 3 mod 4"
            )
    elif spec.rank % 2 == 0:
        raise ParityRegimeError(f"type D rank {spec.rank}: even rank is outside the expansion "
                                "regime")
    return geometry


def _guard_resources(ground: int, nslots: int, d: int) -> None:
    if d > MAX_DEGREE:
        raise ResourceCapExceeded(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    instances = count_matchings(ground) * (2**nslots)
    if instances > MAX_MONOMIAL_INSTANCES:
        raise ResourceCapExceeded(
            f"fold over {count_matchings(ground)} matchings x 2^{nslots} forms "
            f"= {instances} monomial instances exceeds the cap of {MAX_MONOMIAL_INSTANCES}"
        )


def z_poly(spec: ArrangementSpec, d: int, threads: int = 1) -> Poly:
    """The signed fold over all maximal matchings of the composed degree-d
    blocks, on unnormalized integer forms (carries 2^(d/2) relative to
    unit forms).  Zero when d < k or d has the wrong parity.  `threads` is
    validated but unused: the fold runs in this process.

    Each matching's product is built edge by edge over the tables q = 0..m,
    cleared as in _fold_scale: the partial products are kept by their running
    inner degree, and at the last edge only the completions to degree m are
    added to the fold.  Monomials are packed into ints, 8 bits per variable
    (exponents stay below 256 by the degree cap), so multiplying monomials
    adds keys."""
    _check_threads(threads)
    geometry = _require_symbolic_regime(spec)
    m = geometry.half_degree(d)
    if m is None:
        return Poly.zero(spec.ambient_dim)
    _guard_resources(geometry.ground, geometry.nslots, d)
    tables, lcm, factors = _cleared_tables(geometry.pair_forms, m)
    edge_terms: Dict[Tuple[int, int], List[Tuple[List[int], List[int]]]] = {}
    acc: Dict[int, int] = {}
    get = acc.get
    for matching in enumerate_matchings(geometry.ground):
        for edge in matching.edges:
            if edge not in edge_terms:
                i, j = edge[0] - 1, edge[1] - 1
                edge_terms[edge] = [([(ei << 8 * i) | (ej << 8 * j) for ei, ej in table],
                                     [c * f for c in table.values()])
                                    for table, f in zip(tables, factors)]
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
    scale = _fold_scale(spec, geometry, m, lcm)
    ground = geometry.ground
    return Poly(ground, {tuple((key >> 8 * i) & 0xFF for i in range(ground)): scale * val
                         for key, val in acc.items() if val})


def quotient_from_fold(spec: ArrangementSpec, d: int, z: Poly) -> Poly:
    """Quotient derivation from an already-computed degree-d fold: exact
    Vandermonde division then the normalization 2^-s, s the Schur shift
    (FoldGeometry.schur_shift).  A zero fold is its own quotient."""
    if z.is_zero():
        return z
    geometry = fold_parameters(spec)
    shift = geometry.schur_shift(d)
    if shift is None:
        raise ValueError(f"a nonzero fold at degree {d}, where the fold vanishes")
    q = divide_by_vandermonde(z, range(z.arity), squared=geometry.pair_forms)
    return q.scale(Fraction(1, 1 << shift))


def _pfaffian(w: List[List[int]]) -> int:
    """Pf(w) of a skew-symmetric integer matrix (its rows, overwritten); 0
    for an odd size.  Each step pivots on the first vertex r left and the
    first s after it with w_rs != 0 (moving s next to r past k vertices
    multiplies Pf by (-1)^k; no such s means Pf = 0), drops both and sets
    each w_ij left to (w_rs w_ij - w_ri w_sj + w_rj w_si) / p, p the previous
    pivot (1 at first).  Each division is exact: w_ij becomes Pf of w on the
    pivots S so far and i, j, by Knuth's overlapping-Pfaffian identity
    Pf(S) Pf(S+rsij) = Pf(S+rs) Pf(S+ij) - Pf(S+ri) Pf(S+sj) + Pf(S+rj) Pf(S+si),
    an integer.  The last pivot, signed by the moves, is Pf(w)."""
    sign, prev, rest = 1, 1, list(range(len(w)))
    while rest:
        r = rest.pop(0)
        k = next((k for k, j in enumerate(rest) if w[r][j]), None)
        if k is None:
            return 0
        s = rest.pop(k)
        sign, pivot, row_r, row_s = sign * (-1) ** k, w[r][s], w[r], w[s]
        for a, i in enumerate(rest):
            row_i = w[i]
            for j in rest[a + 1:]:
                row_i[j] = (pivot * row_i[j] - row_r[i] * row_s[j] + row_r[j] * row_s[i]) // prev
                w[j][i] = -row_i[j]
        prev = pivot
    return sign * prev


def dominant_coefficients(spec: ArrangementSpec, d: int, schur: bool = False
                          ) -> Dict[Tuple[int, ...], Fraction]:
    """The nonzero c_lambda of the degree-d fold, keyed by partitions as
    `partitions` yields them: the coefficient on a^(lambda+delta) (type A)
    or a^(2(lambda+delta)) (type D), delta = (ground-1, ..., 0), the
    exponents polyring.alternant_exponents writes, normalized by 2^-s as in
    quotient.  s is the Schur shift of FoldGeometry.schur_shift and |lambda|
    is 2s / forms, forms the forms per edge; empty where schur_shift finds
    the fold zero, below the root count or at the other parity.

    A matching reaches a target monomial mu through one composition only:
    edge (i, j) takes inner degree q = (mu_i + mu_j - forms)/2, with one or
    two forms per edge, and contributes the entry w_ij of _edge_table(q) on
    (mu_i, mu_j), or 0 (absent, or q of the wrong parity; the exponents of
    mu are distinct, so q lies in 0..m).  Only the tables up to the largest
    q of a target are read, cleared to one denominator L as in _fold_scale,
    whose scale cancels the L^E of each product.  With the matching signs
    (-1)^crossings, the sum over the matchings is the Pfaffian of W_mu.  An
    odd ground set gets a vertex g+1 joined by w = 1 to the vertex of
    exponent 0, the one that may be isolated: the edge (p, g+1) crosses
    g - p = p - 1 (mod 2) edges, the extra sign of matchings.sign.

    The work is capped by MAX_QUOTIENT_WORK before any table is built: the
    edge tables' steps and a Pfaffian's per target, the targets counted only
    up to what the cap admits, and with `schur` the steps the caller spends
    on the result, the Schur expansion of quotient and expansion_report:
    about 100 a monomial of degree |lambda| on the g = ground variables,
    100 C(|lambda| + g - 1, g - 1).
    """
    geometry = _require_symbolic_regime(spec)
    shift = geometry.schur_shift(d)
    if shift is None:
        return {}
    ground, forms, m = geometry.ground, geometry.forms, geometry.half_degree(d)
    size = 2 * shift // forms
    # work in steps of about one of _pfaffian's: (m+1)^3 for the edge tables of either layout
    # (cold, q = 0..367: 0.1 s for one form, 0.7 s for the pair), (ground+1)^3 a Pfaffian
    work = (100 * math.comb(size + ground - 1, ground - 1) if schur else 0) + (m + 1) ** 3
    lams = []
    for lam in partitions(size, ground):
        if work > MAX_QUOTIENT_WORK:
            break
        work += (ground + 1) ** 3
        lams.append(lam)
    if work > MAX_QUOTIENT_WORK:
        stages = ("edge tables, Pfaffians and Schur expansion" if schur
                  else "edge tables and Pfaffians")
        raise ResourceCapExceeded(f"degree {d}: about {work} steps for the {stages} exceed the "
                                  f"cap of {MAX_QUOTIENT_WORK}")
    # targets are stretched by the forms per edge, and so are an edge's table degrees 2q + forms
    # q = (mu_i + mu_j - forms) >> 1 is largest on the top two exponents, at lambda = (size)
    top = forms * (size + 2 * ground - 4) >> 1
    tables, lcm, factors = _cleared_tables(geometry.pair_forms, top)
    scale = _fold_scale(spec, geometry, m, lcm) / (1 << shift)
    pfaffians = []
    for lam in lams:
        mu = [forms * e for e in alternant_exponents(lam, ground)]
        w = [[0] * geometry.order for _ in range(geometry.order)]
        for i in range(ground):
            for j in range(i + 1, ground):
                q = (mu[i] + mu[j] - forms) >> 1
                w[i][j] = tables[q].get((mu[i], mu[j]), 0) * factors[q]
                w[j][i] = -w[i][j]
            if ground % 2 and not mu[i]:
                w[i][ground], w[ground][i] = 1, -1
        pfaffians.append(_pfaffian(w))
    return {lam: scale * value for lam, value in zip(lams, pfaffians) if value}


def quotient(spec: ArrangementSpec, d: int) -> Poly:
    """Exact quotient of the degree-d fold by the Jacobian, normalized so the
    result matches the unit-root convention (the factor 2^-s, s the Schur shift):
    sum c_lambda s_lambda by the bialternant formula, from the dominant
    coefficients alone, with neither the full fold nor a division computed.
    It is the expanded quotient of expansion_report's entry at d, so it
    takes that report's refusals.  Equal to
    quotient_from_fold(spec, d, z_poly(spec, d))."""
    return expansion_report(spec, [d]).entries[0].quotient


def reduce_mod_relation(p: Poly, spec: ArrangementSpec) -> Poly:
    """Canonical representative of p modulo a_1 + ... + a_(n+1) = 0 (type A):
    substitutes the last variable by minus the sum of the others."""
    if not spec.sum_zero:
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
    """One degree of a report: the quotient sum q_nu / den m_nu on its
    sorted-monomial coefficients q, over `arity` variables with exponents
    times `factor` (2 for type D, whose quotient is in the a_i^2), and for
    type A the representative modulo the sum relation on the same basis
    over the first arity - 1 variables (reduced_q, over the same den; None
    for type D).  The reports write their terms from q; the expanded
    polynomials are built on first access, for the reference routes."""
    degree: int
    arity: int
    factor: int
    den: int
    q: Dict[Partition, int]
    reduced_q: Optional[Dict[Partition, int]]

    def terms(self) -> List[Tuple[Monomial, Fraction]]:
        return monomial_terms(self.q, self.den, self.arity, self.factor)

    def reduced_terms(self) -> Optional[List[Tuple[Monomial, Fraction]]]:
        return None if self.reduced_q is None else monomial_terms(self.reduced_q, self.den,
                                                                   self.arity)

    @cached_property
    def quotient(self) -> Poly:
        return spread_monomials(self.q, self.den, self.arity, self.factor)

    @cached_property
    def reduced_quotient(self) -> Optional[Poly]:
        """Type A: the representative modulo sum = 0, on all arity variables."""
        return None if self.reduced_q is None else spread_monomials(self.reduced_q, self.den,
                                                                     self.arity)

    def to_text(self) -> str:
        """The reduced quotient (type A) or the quotient (type D), written
        c * (a1^2 + ... + an^2) when it is c times the power sum of the
        squares of all its variables.  The type A representative leaves out
        the last variable, so it is always written term by term."""
        if self.reduced_q is not None:
            return format_terms(self.reduced_terms())
        if len(self.q) == 1:
            (nu, c), = self.q.items()
            if tuple(self.factor * e for e in nu) == (2,) + (0,) * (self.arity - 1):
                return f"{Fraction(c, self.den)} * (a1^2 + ... + a{self.arity}^2)"
        return format_terms(self.terms())


def _json_terms(terms: List[Tuple[Monomial, Fraction]]) -> List[dict]:
    return [{"exponents": list(mono), "num": coeff.numerator, "den": coeff.denominator}
            for mono, coeff in terms]


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
            "prefactor": {"two_power": self.k, "ball_dim": self.spec.ball_dim - self.k},
            "entries": [
                {
                    "degree": e.degree,
                    "quotient_terms": _json_terms(e.terms()),
                    "reduced_quotient_terms": (
                        _json_terms(e.reduced_terms()) if e.reduced_q is not None else None
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
        lines += [f"  degree {e.degree}: {e.to_text()}" for e in self.entries]
        return "\n".join(lines)


def expansion_report(spec: ArrangementSpec, degrees: Sequence[int],
                     threads: int = 1) -> ExpansionReport:
    """Quotients (and, for type A, representatives modulo the sum relation)
    at each requested degree.  `threads` is validated but unused: everything
    runs in this process.

    Each quotient stays on its sorted-monomial coefficients, and the type A
    representative is reduced on them (reduce_symmetric_mod_sum), so no
    polynomial is expanded.  reduce_mod_relation, which substitutes into
    the expanded quotient, is the independent route the tests compare it
    with.  The Schur expansion's steps are charged to dominant_coefficients'
    cap, before it computes a coefficient."""
    _check_threads(threads)
    geometry = fold_parameters(spec)
    entries = []
    for d in degrees:
        coeffs = dominant_coefficients(spec, d, schur=True)
        q, den = monomial_coefficients(coeffs, geometry.ground)
        reduced = reduce_symmetric_mod_sum(q) if spec.sum_zero else None
        entries.append(ReportEntry(d, geometry.ground, geometry.forms, den, q, reduced))
    return ExpansionReport(spec, geometry.k, geometry.roots, entries)
