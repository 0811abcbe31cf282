"""Reference routes that only the tests use: slower, direct computations
that the library's results are compared against.  Among them: Vandermonde
products, alternants and Schur bialternants; the expanded Jacobian; the
per-edge tables as sums of binomial-row products over compositions; the
fold by direct composition of Taylor blocks (z_poly_reference); the
dominant coefficients, the Pfaffian and the exact folds' integer sums as
signed sums over the matchings; the Monte Carlo chunk loop before its
block kernel; nested quadrature; check schur, check lemma51 and the table
cells on the expanded fold and quotients; `expand`'s output rendered from
the expanded quotients, and a report entry read back from them onto their
sorted-monomial coefficients; and the sign checks' earlier fixed-step
escalation.  The polynomial helpers at the
top (constant, coefficient, power, variable permutations and sign flips)
are the ones only tests need."""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from coxpizza import matchings as mt
from coxpizza.conjectures import (ConjectureReport, ReconstructionMismatch, RewriteFailed, _finish,
                                  _type_d)
from coxpizza.matchings import (FoldGeometry, Matching, c_coefficient, edge_forms,
                                enumerate_matchings, fold_parameters)
from coxpizza.oracle import (_BLOCK, _HYPERPLANE_TOL, BallSpec, DivergentRegion,
                             _int_binomial_convolve, ball_volume, exact_sign_fold)
from coxpizza.polyring import (Monomial, Partition, Poly, Rational, divide_by_vandermonde, mul,
                               normalize_partition, partitions, spread_monomials)
from coxpizza.rootsys import ArrangementSpec, Root, make_spec, positive_roots
from coxpizza.taylor import (ExpansionReport, ReportEntry, _admitted_geometry, _edge_table, _fold_scale,
                             _require_symbolic_regime, dominant_coefficients, expansion_report,
                             reduce_mod_relation, z_poly)


def constant(arity: int, value) -> Poly:
    return Poly(arity, {(0,) * arity: Fraction(value)})


def coefficient(p: Poly, mono: Sequence[int]) -> Rational:
    return p.terms.get(tuple(mono), Fraction(0))


def evaluate(p: Poly, point: Sequence) -> Rational | float:
    """The value at a point: an exact Fraction when every coordinate is
    an int or a Fraction, else a float, for numeric cross-checks."""
    if len(point) != p.arity:
        raise ValueError("point length must equal arity")
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    total = Fraction(0) if exact else 0.0
    for mono, coeff in p.terms.items():
        v = coeff if exact else float(coeff)
        for x, e in zip(point, mono):
            if e:
                v *= x**e
        total += v
    return total


def power(p: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power")
    result = constant(p.arity, 1)
    base = p
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


def permute_variables(p: Poly, perm: Sequence[int]) -> Poly:
    """Relabel variables: variable i becomes variable perm[i]."""
    if sorted(perm) != list(range(p.arity)):
        raise ValueError("perm must be a permutation of the variable indices")
    out: Dict[Monomial, Rational] = {}
    for mono, coeff in p.terms.items():
        new = [0] * p.arity
        for i, e in enumerate(mono):
            new[perm[i]] = e
        out[tuple(new)] = coeff
    return Poly(p.arity, out)


def flip_variable_sign(p: Poly, index: int) -> Poly:
    """Substitute x_index -> -x_index."""
    out: Dict[Monomial, Rational] = {}
    for mono, coeff in p.terms.items():
        out[mono] = -coeff if mono[index] % 2 else coeff
    return Poly(p.arity, out)


def contains_origin(ball: BallSpec) -> bool:
    return ball.radius >= math.sqrt(sum(x * x for x in ball.center))


def form_values(geometry: FoldGeometry, m: Matching, point: Sequence) -> Iterator:
    """The unnormalized forms of the subsystem indexed by m at a point, edge
    by edge (edge_forms): the matchings loops below walk them."""
    for i, j in m.edges:
        yield from edge_forms(geometry, i, j, point)


def mc_chunk_by_norms(rng, count: int, dim: int, radius: float, center, embed_t, roots
                      ) -> Tuple[int, int]:
    """oracle._mc_chunk as the loop it replaced: (sum of the chamber signs,
    draws) of one Monte Carlo chunk, with fresh arrays per pass and block,
    each row divided by its norm and then multiplied by its radius, and the
    chamber sign as the parity of the count of negative pairings."""
    import numpy as np

    total = draws = 0
    remaining = count
    while remaining:
        directions = rng.standard_normal((remaining, dim))
        radii = radius * rng.random(remaining) ** (1.0 / dim)
        draws += remaining
        kept = 0
        for start in range(0, remaining, _BLOCK):
            direction = directions[start : start + _BLOCK]
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            local = direction * radii[start : start + _BLOCK, None]
            points = center + (local @ embed_t if embed_t is not None else local)
            pairings = roots @ points.T
            if np.abs(pairings).min() <= _HYPERPLANE_TOL:
                pairings = pairings[:, np.all(np.abs(pairings) > _HYPERPLANE_TOL, axis=0)]
            negatives = np.add.reduce(np.signbit(pairings), axis=0, dtype=np.uint8)
            odd = int(np.count_nonzero(negatives & 1))
            kept += pairings.shape[1]
            total += pairings.shape[1] - 2 * odd
        remaining -= kept
    return total, draws


def auto_degree_cap(n: int, k: int, s: float, target_tail: float,
                    max_cap: int = 400) -> int:
    """Smallest degree cap whose tail bound is below target (pre-prefactor
    s = sum of squared coordinates)."""
    if s >= 1.0:
        raise DivergentRegion("no finite cap converges at s >= 1")
    prefactor = 2**k * ball_volume(n - k)
    for m_top in range(max_cap):
        c_next = abs(c_coefficient(n, k, m_top + 1))
        if prefactor * float(c_next) * s ** (m_top + 1) / (1.0 - s) < target_tail:
            return k + 2 * m_top
    raise ValueError(f"tail target {target_tail} unreachable below degree {k + 2 * max_cap}")


def signed_estimate_fixed_step(spec: ArrangementSpec, center: Sequence[float]
                               ) -> Tuple[Fraction, Fraction, int]:
    """The sign checks' earlier escalation, as (value, tail, degree_cap): a
    first cap from auto_degree_cap at an absolute tail of 1e-12 for the
    largest squared radius over the matchings, then 40 degrees more per fold
    until the band excludes zero or the cap reaches 400."""
    geometry = fold_parameters(spec)
    smax = 0.0
    for matching in enumerate_matchings(geometry.ground):
        s = 0.0
        for u in form_values(geometry, matching, center):
            unit = u / math.sqrt(2)
            s += unit * unit
        smax = max(smax, s)
    cap = auto_degree_cap(spec.rank, geometry.k, smax, 1e-12)
    value, tail = exact_sign_fold(spec, center, cap)
    while tail >= abs(value) and cap < 400:
        cap = min(400, cap + 40)
        value, tail = exact_sign_fold(spec, center, cap)
    return value, tail, cap


def vandermonde(arity: int, var_indices: Sequence[int] | None = None, squared: bool = False) -> Poly:
    """prod_{i<j} (x_i - x_j), or prod (x_i^2 - x_j^2) when squared."""
    idx = list(var_indices) if var_indices is not None else list(range(arity))
    result = constant(arity, 1)
    for s, i in enumerate(idx):
        for j in idx[s + 1 :]:
            coeffs = [0] * arity
            coeffs[i] = 1
            coeffs[j] = -1
            factor = Poly.linear_form(arity, coeffs)
            if squared:
                coeffs[j] = 1
                factor = mul(factor, Poly.linear_form(arity, coeffs))
            result = mul(result, factor)
    return result


def is_skew_under_transposition(p: Poly, i: int, j: int) -> bool:
    """True iff swapping variables i and j negates p exactly."""
    if i == j:
        raise ValueError("need two distinct variable indices")
    perm = list(range(p.arity))
    perm[i], perm[j] = perm[j], perm[i]
    return permute_variables(p, perm) == p.scale(-1)


def alternant(exponents: Sequence[int], nvars: int) -> Poly:
    """det of the matrix (x_i ^ exponents[j]) via signed permutation expansion.

    Entries are single monomials, so cofactor expansion reduces to the sum
    over permutations; nvars stays small (<= 8) in every use here.
    """
    terms: Dict[Monomial, Rational] = {}

    def perm_sign(perm: Sequence[int]) -> int:
        sign = 1
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    for perm in itertools.permutations(range(nvars)):
        mono = tuple(exponents[perm[i]] for i in range(nvars))
        coeff = terms.get(mono, 0) + perm_sign(perm)
        if coeff:
            terms[mono] = coeff
        else:
            terms.pop(mono, None)
    return Poly(nvars, {m: Fraction(c) for m, c in terms.items()})


def schur_bialternant(lam: Iterable[int], nvars: int) -> Poly:
    """Schur polynomial s_lambda(x_1..x_nvars) as alternant / Vandermonde."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    if nvars < 1:
        raise ValueError("need at least one variable")
    padded = list(lam) + [0] * (nvars - len(lam))
    exponents = [padded[j] + (nvars - 1 - j) for j in range(nvars)]
    numerator = alternant(exponents, nvars)
    return divide_by_vandermonde(numerator, range(nvars))


def jacobian_unnormalized(spec: ArrangementSpec) -> Poly:
    """Product of the integer linear forms <coords, a> over the positive roots.

    Degree equals the positive root count.  Relative to the unit-root
    Jacobian this carries an extra factor 2^(|roots|/2) for types A and D.
    """
    if spec.family not in ("A", "D"):
        raise ValueError(f"Jacobian only defined for families A and D, not {spec.family}")
    result = constant(spec.ambient_dim, 1)
    for root in positive_roots(spec):
        result = mul(result, Poly.linear_form(spec.ambient_dim, root.coords))
    return result


def reflect(vector: Sequence[int], root: Root) -> Tuple[Fraction, ...]:
    """Orthogonal reflection of an integer vector in the root's hyperplane."""
    num = sum(c * x for c, x in zip(root.coords, vector))
    factor = Fraction(2 * num, root.norm_squared)
    return tuple(Fraction(x) - factor * c for x, c in zip(vector, root.coords))


@dataclass(frozen=True)
class TwoStructure:
    """Pairwise orthogonal positive roots attached to a matching: one root
    per edge for type A, the minus and plus forms per edge for type D."""

    source: Matching
    positive_roots: Tuple[Root, ...]


def two_structure(spec: ArrangementSpec, m: Matching) -> TwoStructure:
    """Positive roots per edge: e_i - e_j for type A; for type D the pair
    e_i - e_j then e_i + e_j.  Coordinates are unnormalized integers."""
    if spec.family not in ("A", "D"):
        raise ValueError(f"two-structures by matchings exist for families A and D, not {spec.family}")
    geometry = fold_parameters(spec)
    if m.ground_size != geometry.ground:
        raise ValueError(f"matching ground size {m.ground_size} does not match {spec} (expected {geometry.ground})")
    dim = spec.ambient_dim
    roots: List[Root] = []
    for i, j in m.edges:
        minus = [0] * dim
        minus[i - 1], minus[j - 1] = 1, -1
        roots.append(Root(tuple(minus), 2))
        if geometry.pair_forms:
            plus = [0] * dim
            plus[i - 1], plus[j - 1] = 1, 1
            roots.append(Root(tuple(plus), 2))
    return TwoStructure(m, tuple(roots))


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Ordered compositions of total into `parts` non-negative parts,
    first coordinate descending (fixed, reproducible order)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def edge_table_by_composition(pair_forms: bool, q: int) -> Tuple[Dict[Tuple[int, int], int], int]:
    """taylor._edge_table by expanding its defining sum: for every
    composition r+s=q (one part for a single form) the product of the dense
    binomial rows C(q, r) (O/a) (x-y)^a and (O/b) (x+y)^b, a = 2r+1,
    b = 2s+1, O = lcm(1, 3, .., 2q+1), summed and reduced once by the gcd
    with O^forms q!."""
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


@dataclass(frozen=True)
class TPoly:
    """Degree-d Taylor block in k variables, for ambient dimension n.

    Zero when d < k or d has opposite parity to k; otherwise symmetric in
    its k variables, odd in each, homogeneous of degree d."""

    n: int
    k: int
    d: int
    body: Poly


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
            powers[key] = power(forms[i], e)
        return powers[key]

    result = Poly.zero(arity)
    for mono, coeff in t.body.terms.items():
        piece = constant(arity, coeff)
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
        phi = two_structure(spec, matching)
        piece = t_eval_on_structure(block, phi, spec.ambient_dim)
        total = total + piece.scale(mt.sign(matching))
    return total


def dominant_coefficients_by_matchings(spec: ArrangementSpec, d: int
                                       ) -> Dict[Tuple[int, ...], Fraction]:
    """Same value as dominant_coefficients, by the loop over all maximal
    matchings: for each matching and target mu, the product of the edges'
    entries of the edge tables for q = 0..m, cleared to one denominator L,
    on (mu_i, mu_j) with the matching's sign, skipped when the isolated
    vertex has a nonzero exponent."""
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
    tables, scalars = zip(*(_edge_table(geometry.pair_forms, q) for q in range(m + 1)))
    lcm = math.lcm(*scalars)
    tables = [{key: c * (lcm // s) for key, c in table.items()}
              for table, s in zip(tables, scalars)]
    lams = list(partitions(size, ground))
    targets = []
    for lam in lams:
        padded = lam + (0,) * (ground - len(lam))
        targets.append(tuple(stretch * (part + ground - 1 - i) for i, part in enumerate(padded)))
    sums = [0] * len(targets)

    for matching in enumerate_matchings(ground):
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

    scale = _fold_scale(spec, geometry, m, lcm) / (1 << (shift // 2))
    return {lam: scale * value for lam, value in zip(lams, sums) if value}


def pfaffian_by_matchings(w: Sequence[Sequence[int]]) -> int:
    """Pf(w) as the signed sum over the perfect matchings of the vertices:
    sign (-1)^crossings times the product of w_ij (i < j) over the edges;
    0 for an odd size."""
    size = len(w)
    if size % 2:
        return 0
    if size == 0:
        return 1
    return sum(mt.sign(matching) * math.prod(w[i - 1][j - 1] for i, j in matching.edges)
               for matching in enumerate_matchings(size))


def signed_sums_by_matchings(geometry: FoldGeometry,
                             matchings: Sequence[Tuple[int, tuple, List[Fraction]]],
                             m_top: int) -> Tuple[List[int], int, int, List[int]]:
    """Same S, D and O as oracle._signed_sums and oracle._edge_forms, by
    the loop over the matchings: (S, D, O, squares) from the (sign, edges,
    pairings) of every matching at one point.

    D is the lcm of the pairing denominators over all matchings and
    O = lcm(1, 3, .., 2 m_top + 1).  Each form contributes the series
    U^(2r+1) (O/(2r+1)), r = 0..m_top, with U = u D; the forms' series are
    binomially convolved across the matching (the edge series, one form or
    the convolved minus/plus pair, are built once per edge), and the
    convolutions are summed with the matching signs into S[m], so that

        Z_(2m+k)(point) = c_m S[m] / (D^(2m+k) O^k)

    on the unnormalized forms.  squares[i] is sum(U^2) of matching i."""
    size = m_top + 1
    forms_per_edge = 2 if geometry.pair_forms else 1
    denominator = math.lcm(*(u.denominator for _, _, us in matchings for u in us))
    odd = math.lcm(*range(1, 2 * m_top + 2, 2))
    comb = [[math.comb(m, j) for j in range(m + 1)] for m in range(size)]
    edge_series = {}
    signed = [0] * size
    squares = []
    for sign, edges, pairings in matchings:
        scaled = [int(u * denominator) for u in pairings]
        squares.append(sum(v * v for v in scaled))
        conv = None
        for slot, edge in enumerate(edges):
            series = edge_series.get(edge)
            if series is None:
                for v in scaled[slot * forms_per_edge : (slot + 1) * forms_per_edge]:
                    g, power, vv = [], v, v * v
                    for r in range(size):
                        g.append(power * (odd // (2 * r + 1)))
                        power *= vv
                    series = g if series is None else _int_binomial_convolve(series, g, comb)
                edge_series[edge] = series
            conv = series if conv is None else _int_binomial_convolve(conv, series, comb)
        for m in range(size):
            signed[m] += sign * conv[m]
    return signed, denominator, odd, squares


def fold_at(spec: ArrangementSpec, point: Sequence, degree_cap: int) -> Dict[int, Fraction]:
    """The exact values Z_d(point) of the signed fold for d = k, k+2, ..,
    <= degree_cap, keyed by d, in z_poly's convention (unnormalized integer
    forms): Z_(2m+k)(point) = c_m S[m] / (D^(2m+k) O^k) from _signed_sums.

    Z_d is a polynomial, so any exact point is admitted (no unit-ball or
    sum-zero condition); this is the point-evaluation route that checks the
    dominant coefficients and the quotients (Z_d = 2^shift Q J) without
    expanding the fold."""
    geometry, exact_point, m_top = _exact_frame(spec, point, degree_cap)
    k = geometry.k
    matchings = [(mt.sign(matching), matching.edges,
                  list(form_values(geometry, matching, exact_point)))
                 for matching in enumerate_matchings(geometry.ground)]
    signed, denominator, odd, _ = _signed_sums(geometry, matchings, m_top)
    return {2 * m + k: c_coefficient(spec.rank, k, m) * Fraction(s, denominator ** (2 * m + k))
            / odd**k for m, s in enumerate(signed)}


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float, depth: int = 48) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError("adaptive quadrature did not reach the requested tolerance")
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_step(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def a1k_pizza_quadrature(n: int, k: int, coords: Sequence[float],
                         tol: float = 1e-10) -> float:
    """Quadrature value of the same quantity as a1k_pizza_series:

        2^k * beta_(n-k) * int_0^x1 ... int_0^xk (1 - t1^2 - .. - tk^2)^((n-k)/2)

    Nested adaptive Simpson, absolute tolerance; practical for k <= 3.
    """
    if len(coords) != k:
        raise ValueError(f"need {k} coordinates, got {len(coords)}")
    if k > 3:
        raise ValueError("quadrature path supports k <= 3")
    if sum(x * x for x in coords) > 1.0 + 1e-14:
        raise ValueError("coordinates must lie within the unit ball")
    exponent = 0.5 * (n - k)

    def integrand_last(square_sum: float) -> float:
        return max(1.0 - square_sum, 0.0) ** exponent

    def nest(level: int, square_sum: float, level_tol: float) -> float:
        upper = float(coords[level])
        if upper == 0.0:
            return 0.0
        if level == k - 1:
            f = lambda t: integrand_last(square_sum + t * t)
        else:
            f = lambda t: nest(level + 1, square_sum + t * t, level_tol * 0.1)
        if upper < 0.0:
            return -_adaptive_simpson(lambda t: f(-t), 0.0, -upper, level_tol)
        return _adaptive_simpson(f, 0.0, upper, level_tol)

    return 2**k * ball_volume(n - k) * nest(0, 0.0, tol)


def lemma51_by_fold(n: int, d: int) -> ConjectureReport:
    """check lemma51 on the expanded fold: every monomial of z_poly is
    tested for (a) an odd exponent, (b) no zero exponent and (c) a repeated
    exponent, in descending monomial order."""
    started = time.perf_counter()
    spec, _ = _type_d(n, d)
    z = z_poly(spec, d)
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


def schur_lambda_coefficients(n: int, d: int) -> Dict[str, str]:
    """check schur's lambda_coefficients by the expanded route: the sum of
    c_lambda times the alternant a_(2(lambda+delta)) over the partitions
    with at most n-1 parts must equal the full type D fold divided by
    2^shift, monomial by monomial; raises ReconstructionMismatch otherwise."""
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
    return {str(list(k)): str(v) for k, v in lambda_coeffs.items()}


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


def report_entry(degree: int, quotient: Poly, reduced: Optional[Poly], factor: int) -> ReportEntry:
    """The ReportEntry of an expanded quotient, with exponents `factor`
    times those of its sorted-monomial basis, and of its type A
    representative modulo the sum relation (last variable absent; None for
    type D): each read back onto its coefficients q_nu over the lcm of
    their denominators.  Raises ValueError unless every rearrangement of a
    monomial carries the same coefficient, so that q_nu spreads back to the
    polynomial."""
    polys = [p for p in (quotient, reduced) if p is not None]
    den = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))

    def basis(poly: Poly, nvars: int, f: int) -> Dict[Partition, int]:
        q = {tuple(sorted((e // f for e in mono[:nvars]), reverse=True)):
             c.numerator * (den // c.denominator) for mono, c in poly.terms.items()}
        if spread_monomials(q, den, poly.arity, f) != poly:
            raise ValueError(f"degree {degree}: not symmetric on its sorted monomials")
        return q

    arity = quotient.arity
    return ReportEntry(degree, arity, factor, den, basis(quotient, arity, factor),
                       None if reduced is None else basis(reduced, arity - 1, 1))


def expand_output_by_polys(report: ExpansionReport, fmt: str) -> str:
    """What `expand --format fmt` writes for the report, rendered from the
    expanded quotients entry.quotient and entry.reduced_quotient: each
    Poly's sorted_terms, and in text the reduced quotient (type A) or the
    quotient (type D), written c * (a1^2 + ... + an^2) when
    power_sum_multiple finds it of that shape."""
    spec = report.spec
    polys = [(e.degree, e.quotient, e.reduced_quotient) for e in report.entries]
    if fmt == "json":
        def serialize(poly: Poly) -> List[dict]:
            return [{"exponents": list(mono), "num": c.numerator, "den": c.denominator}
                    for mono, c in poly.sorted_terms()]
        return json.dumps({
            "schema_version": 1, "family": spec.family, "rank": spec.rank, "k": report.k,
            "phi_plus": report.phi_plus_count,
            "prefactor": {"two_power": report.k, "ball_dim": spec.rank - report.k},
            "entries": [{"degree": d, "quotient_terms": serialize(q),
                         "reduced_quotient_terms": None if r is None else serialize(r)}
                        for d, q, r in polys],
        }, indent=2)
    if fmt == "csv":
        lines = ["degree,kind,exponents,num,den"]
        for d, q, r in polys:
            for kind, poly in (("quotient", q), ("reduced", r)):
                if poly is not None:
                    lines += [f"{d},{kind},{' '.join(map(str, mono))},{c.numerator},{c.denominator}"
                              for mono, c in poly.sorted_terms()]
        return "\n".join(lines)
    lines = [f"family {spec.family}_{spec.rank}: k={report.k}, "
             f"positive roots={report.phi_plus_count}"]
    for d, q, r in polys:
        shown = q if r is None else r
        c = power_sum_multiple(shown)
        lines.append(f"  degree {d}: " + (shown.to_text() if c is None
                                          else f"{c} * (a1^2 + ... + a{shown.arity}^2)"))
    return "\n".join(lines)


def _p2_coefficient(entry: ReportEntry, spec: ArrangementSpec) -> Optional[Fraction]:
    """Coefficient c with the entry's quotient == c * (a_1^2 + ... ) exactly
    (type D) or modulo the sum relation (type A, read off the reduced
    quotient); None if the quotient is not of that shape."""
    if spec.family == "D":
        return power_sum_multiple(entry.quotient)
    arity = spec.ambient_dim
    p2 = reduce_mod_relation(Poly(arity, {tuple(2 if i == j else 0 for i in range(arity)): Fraction(1)
                                          for j in range(arity)}), spec)
    square = (2,) + (0,) * (arity - 1)
    # modulo the relation, p2 has a_1^2 coefficient 2 (a_1^2 plus one from a_(n+1)^2)
    c = coefficient(entry.reduced_quotient, square) / coefficient(p2, square)
    return c if entry.reduced_quotient == p2.scale(c) else None


def table_cells(family: str, rank: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """The two table cells of a row read off the expanded quotients: the
    constant quotient at degree |roots|, and the coefficient c of
    c * (a_1^2 + ...) at degree |roots| + 2 (type A modulo the sum
    relation); None where the quotient does not have that shape."""
    spec = make_spec(family, rank)
    phi = spec.positive_root_count
    report = expansion_report(spec, [phi, phi + 2])
    lead = report.entries[0].quotient
    lead_const = coefficient(lead, (0,) * lead.arity) if lead.degree() <= 0 else None
    return lead_const, _p2_coefficient(report.entries[1], spec)


def rewrite_even_symmetric(p: Poly) -> Dict[Tuple[int, int], Fraction]:
    """Write a symmetric polynomial with all-even exponents in two variables
    in the basis u = x^2 + y^2, v = x^2 y^2, by repeatedly subtracting the
    leading term's u^i v^j multiple; raises RewriteFailed otherwise."""
    if p.arity != 2:
        raise ValueError("rewrite expects a two-variable polynomial")
    if any(e % 2 for mono in p.terms for e in mono):
        raise RewriteFailed("quotient has an odd exponent; expected even in each variable")
    halved = Poly(2, {(mono[0] // 2, mono[1] // 2): c for mono, c in p.terms.items()})
    if permute_variables(halved, [1, 0]) != halved:
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
        work = work - mul(power(u, a - b), power(v, b)).scale(coeff)
    return out
