"""Numeric evaluation of pizza quantities.

Two independent routes:

  * mc_pizza              -- Monte Carlo over a ball: sample uniformly, weight
                             by the chamber sign, scale by the ball volume.
  * the exact integer series, with rigorous tail bounds, converted to float
    once:
      a1k_pizza_series      -- k orthogonal coordinate hyperplanes: the
                               binomial convolution of the coordinates'
                               series, weighted by the c_m;
      sum_over_2structures  -- types A and D: exact_sign_fold at the center
                               scaled to radius one, the signed sum over the
                               matchings that the symbolic pipeline is
                               validated against.

Near the center the signed sum cancels down to its first non-zero Taylor
term, of degree |Phi+|, far below its terms, so it is summed exactly and
rounded once; a float sum returns rounding noise there from rank 5 on.

Only the Monte Carlo route uses numpy: mc_pizza (with its chunk kernel
_mc_chunk) and random_interior_centers (with _subspace_basis) import it
themselves.  The exact routes never load it, so a command that does not
sample starts without it.

The signed sum over the matchings of their edges' products is a Pfaffian.
It is memoized on vertex subsets: _pfaffian_plan lists the memo's states in
the order they are computed, and _walk_plan, its one reader, walks them over
any ring, given the ring's unit, the product of an edge with a minor's value
and the combination of a state's positive and negative terms.  It drops each
state's value after the last state that reads it.  Three folds walk it, each
on its own ring:

  * _signed_sums     -- integer binomial-convolution series, exactly: the
                        one exact point evaluator.  It clears the forms at a
                        point to integers by one common denominator, gives
                        every edge its integer series (_forms_series, which
                        also gives a1k_pizza_series its one series), and
                        sums one value per degree.
  * fold_mod         -- residues modulo the prime 2^61 - 1, a series packed
                        into one integer.
  * _squared_radii   -- unsigned, histograms of the matchings' squared radii.

_signed_sums serves two callers:

  * fold_at          -- the exact values Z_d(point) of the symbolic fold
                        (z_poly's convention) at any exact point, degree by
                        degree; the tests check the dominant coefficients
                        and the quotients with it at seeded integer points
                        without expanding the fold.
  * exact_sign_fold  -- the 2^-m-weighted sum of fold_at's values at the
                        center, with the rational tail bound of
                        sign_fold_tails: the sign verdicts read it, and
                        sum_over_2structures scales it.

sign_fold_tails owns that bound.  It depends only on the matchings'
squared radii, so it is known for every cap without folding.  Their
histogram, each distinct radius with its multiplicity, is counted once per
center (the last center's bound is cached) by _squared_radii; no matching
is enumerated.

fold_mod gives Z_d at one degree and one integer point.  check schur and
check lemma51 test the identity Z_d = 2^shift Q J with it at three seeded
points of [0, 2^61 - 1): a wrong identity of degree d passes one with
probability at most d / (2^61 - 1) (Schwartz-Zippel).  Exact values at
such points run to thousands of bits; residues fit a machine word.
fold_mod_work estimates its cost without folding.

Type A lives on the hyperplane sum(a) = 0 inside R^(n+1); sampling happens
in an explicit orthonormal basis of that subspace, so volumes are the
n-dimensional ones.  mc_pizza, sum_over_2structures and the sign checks
refuse type A centers off that hyperplane (require_sum_zero); the exact
evaluators take any point of the ambient space, where their sums are
still defined.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .matchings import FoldGeometry, c_coefficient, count_matchings, edge_forms, fold_parameters
from .rootsys import ArrangementSpec, numeric_roots

_CHUNK = 1 << 16
_BLOCK = 2048  # Monte Carlo rows per pass: a block's temporaries stay in cache
_HYPERPLANE_TOL = 1e-12
_MAX_REJECTED_DRAWS = 20_000
# the largest degree cap of the series oracles and of the sign checks' escalation
MAX_DEGREE_CAP = 400
# the matchings whose squared radii sign_fold_tails counts once per center: 2,027,025
# (A_14, A_15, D_15) are admitted, 34,459,425 (A_16, A_17, D_17) are refused
MAX_TAIL_MATCHINGS = 10**7


class DivergentRegion(ValueError):
    """Series evaluation requested outside its open disk of convergence."""


def ball_volume(dim: int) -> float:
    """Volume of the unit ball: pi^(dim/2) / Gamma(dim/2 + 1)."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    return math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1)) if dim else 1.0


def radius_power(radius: float, dim: int) -> float:
    """R^dim, by which the volume of a ball of radius R in dim dimensions,
    and the pizza quantity with it, scales from radius one.  Refuses a
    radius whose ball volume, ball_volume(dim) * R^dim, is not a positive
    finite float: it underflows to 0 or overflows, and so would every
    route's value and error bar."""
    try:
        power = radius**dim
        volume = ball_volume(dim) * power
    except OverflowError:
        volume = math.inf
    if not 0 < volume < math.inf:
        raise ValueError(f"radius {radius}: the volume of its ball in dimension {dim} "
                         "is not a positive finite float")
    return power


@dataclass(frozen=True)
class BallSpec:
    center: Tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not all(math.isfinite(x) for x in self.center):
            raise ValueError(f"center coordinates must be finite, got {list(self.center)}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int


def _subspace_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the sum-zero hyperplane in R^dim,
    deterministic (Helmert construction)."""
    import numpy as np

    basis = np.zeros((dim, dim - 1))
    for j in range(1, dim):
        basis[:j, j - 1] = 1.0
        basis[j, j - 1] = -j
        basis[:, j - 1] /= math.sqrt(j * (j + 1))
    return basis


def _sampling_frame(spec: ArrangementSpec) -> Tuple[int, Optional[np.ndarray]]:
    """(intrinsic dimension, embedding matrix or None) for uniform sampling."""
    if spec.family == "A":
        return spec.rank, _subspace_basis(spec.ambient_dim)
    return spec.ambient_dim, None


def require_dimension(spec: ArrangementSpec, center: Sequence) -> None:
    """Refuse a center whose dimension is not the spec's ambient dimension."""
    if len(center) != spec.ambient_dim:
        raise ValueError(f"center has dimension {len(center)}, expected {spec.ambient_dim}")


def require_sum_zero(spec: ArrangementSpec, center: Sequence[float], radius: float = 1.0) -> None:
    """Type A lives on the hyperplane sum(a) = 0: refuse a center off it
    (up to 1e-9 relative to the radius, at least 1)."""
    if spec.family == "A" and abs(sum(center)) > 1e-9 * max(1.0, radius):
        raise ValueError("type A centers must satisfy sum(a) = 0")


def mc_pizza(spec: ArrangementSpec, ball: BallSpec, samples: int, seed: int,
             threads: int = 1) -> McEstimate:
    """Monte Carlo estimate: Vol(ball) * mean of the chamber sign over
    uniform samples.  Points within 1e-12 of a hyperplane are resampled; a
    ball that lies within that tolerance of one hyperplane, |<r, a>| + R <=
    1e-12 for a unit root r, is refused, since every draw would be, and so
    is a radius whose ball volume is not a positive finite float.  A ball
    inside the union of several such slabs but within none alone is refused
    once _MAX_REJECTED_DRAWS draws in a row are resampled (a ValueError from
    _mc_chunk); the count changes no draw.

    Chunked with counter-derived sub-seeds, so the estimate depends only on
    (seed, samples) and the chunk size _CHUNK, not on threading: every
    thread count runs the chunks on a pool of `threads` workers, and their
    integer sign sums are added in chunk order.  Each chunk is one _mc_chunk
    call: plain NumPy expressions per block of rows, one scale per row, and
    the chamber sign as the sign of the product of the pairings.  It draws
    the same random stream as the loop it replaced (tests/reference.py) and
    moves a point in its last bits at most, so a keep or sign decision, and
    with it the estimate, changes with probability far below 1e-12 per draw;
    the pinned estimates of the tests are bit-identical.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    require_dimension(spec, ball.center)
    dim, embed = _sampling_frame(spec)
    require_sum_zero(spec, ball.center, ball.radius)
    volume = ball_volume(dim) * radius_power(ball.radius, dim)
    roots = np.array(numeric_roots(spec))  # rows are unit roots in ambient coords
    center = np.array(ball.center, dtype=float)
    if (np.abs(roots @ center) + ball.radius).min() <= _HYPERPLANE_TOL:
        raise ValueError(f"the ball lies within {_HYPERPLANE_TOL} of a hyperplane: "
                         f"every draw would be resampled")
    embed_t = None if embed is None else np.ascontiguousarray(embed.T)

    def run_chunk(ci: int) -> int:
        count = min(_CHUNK, samples - ci * _CHUNK)
        rng = np.random.default_rng([seed, ci])
        return _mc_chunk(rng, count, dim, ball.radius, center, embed_t, roots)[0]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        sign_sum = sum(pool.map(run_chunk, range((samples + _CHUNK - 1) // _CHUNK)))

    mean = sign_sum / samples
    if samples > 1:
        variance = (samples - samples * mean * mean) / (samples - 1)
        std_error = volume * math.sqrt(max(variance, 0.0) / samples)
    else:
        std_error = volume
    return McEstimate(volume * mean, std_error, samples, seed)


def _mc_chunk(rng: np.random.Generator, count: int, dim: int, radius: float,
              center: np.ndarray, embed_t: Optional[np.ndarray],
              roots: np.ndarray) -> Tuple[int, int]:
    """(sum of the chamber signs, draws) over `count` kept points of the
    ball, drawn from `rng`: draws - count were resampled.  Once the passes
    since the last one that kept a point have resampled _MAX_REJECTED_DRAWS
    draws, it raises ValueError.

    A pass draws the normals of the missing points at once, one row of
    `dim` per point, and works through them in blocks of _BLOCK rows that
    stay in cache; each block draws its uniforms for the radii just before
    it, so the uniforms follow all of the pass's normals.  A row is scaled
    in place to its radius by one factor, radius / sqrt(sum of squares),
    and embedded by `embed_t` (type A).  A point's chamber sign is the sign
    of the product of its pairings with the unit roots: IEEE multiplication
    gives the product the XOR of its factors' signs, also when it
    underflows to +-0, and no factor is 0 or infinite once the points
    within 1e-12 of a hyperplane are dropped.

    Every row takes the same float operations in any block, so the block
    size does not change the result.  The random stream and the lines that
    decide the 1e-12 test, points = center + local and the pairings, are
    those of the loop this replaced (tests/reference.py); the one scale
    differs from its norm, divide and multiply in the last bits only.
    """
    import numpy as np

    total = draws = stalled = 0
    remaining = count
    while remaining:
        if stalled >= _MAX_REJECTED_DRAWS:
            raise ValueError(f"{stalled} draws in a row were resampled: the ball lies within "
                             f"{_HYPERPLANE_TOL} of the hyperplanes")
        directions = rng.standard_normal((remaining, dim))
        draws += remaining
        kept = 0
        for start in range(0, remaining, _BLOCK):
            direction = directions[start : start + _BLOCK]
            radii = radius * rng.random(direction.shape[0]) ** (1.0 / dim)
            direction *= (radii / np.sqrt(np.einsum("ij,ij->i", direction, direction)))[:, None]
            points = center + (direction if embed_t is None else direction @ embed_t)
            pairings = roots @ points.T
            if np.abs(pairings).min() <= _HYPERPLANE_TOL:  # rare: select points only then
                pairings = pairings[:, np.all(np.abs(pairings) > _HYPERPLANE_TOL, axis=0)]
            odd = int(np.count_nonzero(np.signbit(np.multiply.reduce(pairings, axis=0))))
            kept += pairings.shape[1]
            total += pairings.shape[1] - 2 * odd  # sum of the chamber signs
        stalled = 0 if kept else stalled + remaining
        remaining -= kept
    return total, draws


def random_interior_centers(spec: ArrangementSpec, count: int, seed: int,
                            radius: float = 0.4, margin: float = 0.03) -> List[Tuple[float, ...]]:
    """Seeded centers strictly inside chambers: norm at most `radius`, every
    unit-root pairing at least `margin` in absolute value.  Type A centers
    are drawn inside the sum-zero subspace.

    Coordinates are quantized to multiples of 1/256, so they convert to
    small exact rationals for the exact sign fold.  Raises ValueError after
    _MAX_REJECTED_DRAWS consecutive draws fail the tests (at the defaults,
    D_7 and higher ranks practically never meet the margin), and for a
    negative count."""
    import numpy as np

    if count < 0:
        raise ValueError(f"count must be non-negative, got {count} (no centers to draw)")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, 0x5EED])
    roots = np.array(numeric_roots(spec))
    dim, embed = _sampling_frame(spec)
    out: List[Tuple[float, ...]] = []
    rejected = 0
    while len(out) < count:
        if rejected == _MAX_REJECTED_DRAWS:
            raise ValueError(
                f"no interior center for {spec} with radius {radius} and margin {margin} "
                f"in {_MAX_REJECTED_DRAWS} consecutive draws; lower the margin or give the centers"
            )
        rejected += 1
        y = rng.normal(size=dim)
        y *= radius * rng.random() ** (1.0 / dim) / np.linalg.norm(y)
        x = embed @ y if embed is not None else y
        x = np.round(x * 256.0) / 256.0
        if spec.family == "A":
            x[-1] -= x.sum()  # restore the exact sum-zero relation after rounding
        if np.linalg.norm(x) > radius + 0.1 or np.linalg.norm(x) < 1e-9:
            continue
        if np.min(np.abs(roots @ x)) >= margin:
            out.append(tuple(float(v) for v in x))
            rejected = 0
    return out


# ---------------------------------------------------------------------------
# exact sign fold (rational arithmetic, for sign verdicts)
# ---------------------------------------------------------------------------


def _int_binomial_convolve(a: List[int], b: List[int], comb: List[List[int]]) -> List[int]:
    """c[m] = sum_j C(m, j) a[j] b[m-j] on integers, truncated to len(comb)."""
    return [sum(c * x * y for c, x, y in zip(row, a, reversed(b[: m + 1])))
            for m, row in enumerate(comb)]


def _require_cap(degree_cap: int, k: int) -> None:
    """Refuse a degree cap that is not an integer, below the lowest block
    degree k or above MAX_DEGREE_CAP."""
    if not isinstance(degree_cap, int):
        raise ValueError(f"degree_cap {degree_cap!r} is not an integer")
    if degree_cap < k:
        raise ValueError("degree_cap below the lowest block degree")
    if degree_cap > MAX_DEGREE_CAP:
        raise ValueError(f"degree_cap {degree_cap} above the largest admitted, {MAX_DEGREE_CAP}")


def _exact_frame(spec: ArrangementSpec, point: Sequence, degree_cap: int
                 ) -> Tuple[FoldGeometry, List[Fraction], int]:
    """(geometry, exact point, m_top) for the exact folds, after the checks
    they share: family A or D, the point's dimension, a cap from k to
    MAX_DEGREE_CAP."""
    if spec.family not in ("A", "D"):
        raise ValueError(f"exact fold applies to families A and D, not {spec.family}")
    require_dimension(spec, point)
    geometry = fold_parameters(spec)
    _require_cap(degree_cap, geometry.k)
    return geometry, [Fraction(x) for x in point], (degree_cap - geometry.k) // 2


def _series_weights(m_top: int) -> Tuple[int, List[int], List[List[int]]]:
    """(O, the weights O/(2r+1), the binomial rows C(m, j)) of the integer
    series through r = m_top, with O = lcm(1, 3, .., 2 m_top + 1)."""
    odd = math.lcm(*range(1, 2 * m_top + 2, 2))
    return (odd, [odd // (2 * r + 1) for r in range(m_top + 1)],
            [[math.comb(m, j) for j in range(m + 1)] for m in range(m_top + 1)])


def _forms_series(values: Sequence[int], weights: List[int], comb: List[List[int]]) -> List[int]:
    """The binomial convolution, over the integer forms U in `values`, of
    their series U^(2r+1) O/(2r+1), r = 0..m_top (weights and comb from
    _series_weights)."""
    series = None
    for v in values:
        g, power, vv = [], v, v * v
        for w in weights:
            g.append(power * w)
            power *= vv
        series = g if series is None else _int_binomial_convolve(series, g, comb)
    return series


def _edge_forms(geometry: FoldGeometry, point: Sequence[Fraction]
                ) -> Tuple[Dict[Tuple[int, int], Tuple[int, ...]], int]:
    """(forms, D) at an exact point: every edge (i, j), 1 <= i < j <= ground,
    keyed to its forms U = u D (matchings.edge_forms), with D the lcm of all
    the forms' denominators, so that every U is an integer.  D is also the
    lcm over the forms of every matching, since every edge lies in one."""
    exact = {(i, j): edge_forms(geometry, i, j, point)
             for i in range(1, geometry.ground + 1) for j in range(i + 1, geometry.ground + 1)}
    denominator = math.lcm(*(u.denominator for us in exact.values() for u in us))
    return {edge: tuple(u.numerator * (denominator // u.denominator) for u in us)
            for edge, us in exact.items()}, denominator


def _signed_sums(geometry: FoldGeometry, forms: Dict[Tuple[int, int], Tuple[int, ...]],
                 m_top: int) -> Tuple[List[int], int]:
    """The integer core of the exact folds: (S, O) from the edges' integer
    forms U at one point (_edge_forms), with O = lcm(1, 3, .., 2 m_top + 1).

    Each form contributes the series U^(2r+1) (O/(2r+1)), r = 0..m_top, and
    an edge the series of its form or the binomial convolution of its pair
    (_forms_series).
    S[m] is the signed sum over the maximal matchings of the convolution of
    their edges' series, so that, with D from _edge_forms,

        Z_(2m+k)(point) = c_m S[m] / (D^(2m+k) O^k)

    on the unnormalized forms.  That signed sum is the Pfaffian of the edge
    series over the ring of binomial-convolution series (the crossing signs
    are the Pfaffian's; Stembridge 1990), computed by _walk_plan.  The unit
    series is one list object: an edge times it is the edge's series, taken
    unconvolved, and a state whose sum equals it stores it."""
    odd, weights, comb = _series_weights(m_top)
    edges = {(i - 1, j - 1): _forms_series(values, weights, comb) for (i, j), values in forms.items()}
    unit = edges[None] = [1] + [0] * m_top  # None, the added vertex's edge: the unit series

    def times(edge: Optional[Tuple[int, int]], minor: List[int]) -> List[int]:
        return (edges[edge] if minor is unit else minor if edge is None
                else _int_binomial_convolve(edges[edge], minor, comb))

    def combine(plus: List[List[int]], minus: List[List[int]]) -> List[int]:
        total = [sum(column) for column in zip(*plus, *([-t for t in term] for term in minus))]
        return unit if total == unit else total
    return _walk_plan(geometry.ground, unit, times, combine), odd


def fold_at(spec: ArrangementSpec, point: Sequence, degree_cap: int) -> Dict[int, Fraction]:
    """The exact values Z_d(point) of the signed fold for d = k, k+2, ..,
    <= degree_cap, keyed by d, in z_poly's convention (unnormalized integer
    forms): Z_(2m+k)(point) = c_m S[m] / (D^(2m+k) O^k) from _signed_sums,
    which visits no matching.

    Z_d is a polynomial, so any exact point is admitted (no unit-ball or
    sum-zero condition); this is the point-evaluation route that checks the
    dominant coefficients and the quotients (Z_d = 2^shift Q J) without
    expanding the fold."""
    geometry, exact_point, m_top = _exact_frame(spec, point, degree_cap)
    k = geometry.k
    forms, denominator = _edge_forms(geometry, exact_point)
    signed, odd = _signed_sums(geometry, forms, m_top)
    return {2 * m + k: c_coefficient(spec.rank, k, m) * Fraction(s, denominator ** (2 * m + k))
            / odd**k for m, s in enumerate(signed)}


MODULUS = (1 << 61) - 1  # a Mersenne prime: x = (x & MODULUS) + (x >> 61) modulo it
# fold_mod_work's steps for one point: 1 to 1.5 s a million on one core (D_13 d156 takes
# 2.5e5, D_15 d210 1.0e6, D_17 d272 3.9e6; D_19 d342, 1.5e7, is refused)
MAX_FOLD_MOD_WORK = 5 * 10**6


@lru_cache(maxsize=None)
def _pfaffian_plan(ground: int) -> Tuple[Tuple[int, Tuple, Tuple], ...]:
    """The memo of the Pfaffian that _walk_plan, its only reader, walks for
    _signed_sums, fold_mod and _squared_radii: its expansion by minors along
    the lowest vertex,
    Pf(V) = sum_j (-1)^(j-1) E_(v0,vj) * Pf(V - v0 - vj), as a list of every
    vertex subset it memoizes, after its minors, as (mask, plus, minus),
    with the terms (edge, minor) of the positive and negative signs.  Leaving
    out the empty set, that is 33 states at 7-8 vertices, 609 at 13-14 and
    1,596 at 15-16, against (g-1)!! matchings.  An odd ground set gets one
    more vertex, joined to every vertex by the unit series: its edges are
    None, and their crossings give the isolated vertex p its sign
    (-1)^(p-1).  The last entry is the whole set."""
    extra = 1 << ground if ground % 2 else 0
    plan: List[Tuple[int, Tuple, Tuple]] = []
    seen = {0}

    def visit(mask: int) -> None:
        seen.add(mask)
        low = mask & -mask
        first, rest = low.bit_length() - 1, mask ^ low
        terms = []
        partners = rest
        while partners:
            bit = partners & -partners
            partners ^= bit
            if rest ^ bit not in seen:
                visit(rest ^ bit)
            terms.append((None if bit == extra else (first, bit.bit_length() - 1), rest ^ bit))
        plan.append((mask, tuple(terms[::2]), tuple(terms[1::2])))

    visit((1 << ground) - 1 | extra)
    return tuple(plan)


def _walk_plan(ground: int, unit: object, times: Callable[[Optional[tuple], object], object],
               combine: Callable[[list, list], object]) -> object:
    """The Pfaffian of the ground set's edges over one ring, the one walk of
    _pfaffian_plan: each state, in the plan's order, is set to
    combine(plus, minus), the lists of its positive and negative terms
    times(edge, the minor's value), from `unit` at the empty set.  A state's
    value is dropped once the last state that reads it is done, so at 13-14
    vertices at most 345 of the 609 states are kept at once.  Returns the
    whole set's value."""
    plan = _pfaffian_plan(ground)
    last_reader = {minor: mask for mask, plus, minus in plan for _, minor in plus + minus}
    values = {0: unit}
    for mask, plus, minus in plan:
        terms = [times(edge, values.pop(minor) if last_reader[minor] == mask else values[minor])
                 for edge, minor in plus + minus]
        values[mask] = combine(terms[:len(plus)], terms[len(plus):])
    return values[mask]


def _mod_frame(spec: ArrangementSpec, degree: int) -> Tuple[FoldGeometry, int, int]:
    """(geometry, m, vertices) of fold_mod at one degree: m = (degree - k) / 2,
    and the memo's vertices, one more than the ground set when it is odd.
    Refuses a degree that is not an integer, or where the fold vanishes."""
    if not isinstance(degree, int):
        raise ValueError(f"degree {degree!r} is not an integer")
    geometry = fold_parameters(spec)
    if degree < geometry.k or (degree - geometry.k) % 2:
        raise ValueError(f"degree {degree}: the fold vanishes below {geometry.k} "
                         f"and at the other parity")
    return geometry, (degree - geometry.k) // 2, geometry.ground + geometry.ground % 2


def fold_mod_work(spec: ArrangementSpec, degree: int) -> int:
    """fold_mod's work at one degree, without folding: the terms of its memo
    (each a series product, but the few with the unit series) times the
    slots of a packed series, (degree - k) / 2 + 1.  On N vertices the memo
    holds the set less its lowest c vertices and j others, j <= c and
    j = c mod 2 (each step removes the lowest vertex and one more), and such
    a state has N - c - j - 1 terms."""
    _, m, order = _mod_frame(spec, degree)
    terms = sum(math.comb(order - 1 - c, j) * (order - 1 - c - j) for c in range(order - 1)
                for j in range(c % 2, min(c, order - 1 - c) + 1, 2))
    return terms * (m + 1)


def fold_mod(spec: ArrangementSpec, point: Sequence[int], degree: int) -> int:
    """Z_degree(point) modulo MODULUS at an integer point: fold_at's value
    there, reduced (its denominator is a power of 2 times factors up to
    degree, all invertible).

    It walks the plan on residues (_walk_plan).  With the forms' series stored
    in exponential form, a_r / r!, the binomial convolution is the ordinary
    product of power series: a form u gives u^(2r+1) / ((2r+1) r!), an edge
    of type D the product of its two forms' series, and the Pfaffian's value
    at r = m, times m! c_m, is Z_(2m+k).  A series of m+1 residues is packed
    into one integer, one coefficient per slot of W bits (Kronecker
    substitution), so a memo product is one integer product.  Its inputs'
    coefficients are kept below 2^62, so a coefficient of a memo state's sum
    of positive (or negative) terms stays below 2^b, b = 124 +
    bitlen(m+1) + bitlen(g), g the vertices.  A state adds the positive
    terms, adds a multiple of MODULUS above 2^b in every slot, subtracts
    the negative terms and truncates to m+1 slots: with W >= b + 2 no slot
    up to m borrows or carries, and the terms' higher slots, dropped there,
    never reach them.  Two Mersenne folds over all slots at once,
    (x & MODULUS) + (x >> 61), bring each coefficient below 2^62 again
    (two suffice while W < 183).  W is rounded up to whole bytes, so a
    series is packed from bytes.  The weights 1/((2r+1) r!) are inverted
    slot by slot."""
    geometry, m, order = _mod_frame(spec, degree)
    require_dimension(spec, point)
    point = [operator.index(x) for x in point]
    bits = 124 + (m + 1).bit_length() + order.bit_length()  # b above
    size, slot = m + 1, (bits + 2 + 7) // 8
    width = 8 * slot
    ones = ((1 << width * size) - 1) // ((1 << width) - 1)  # 1 in every slot
    truncate, low, high = (1 << width * size) - 1, MODULUS * ones, ((1 << width - 61) - 1) * ones
    offset = (MODULUS << bits - 60) * ones  # MODULUS * 2^(b-60) >= 2^b

    def reduced(x: int) -> int:
        x = (x & low) + ((x >> 61) & high)
        return (x & low) + ((x >> 61) & high)

    weights = [pow((2 * r + 1) * math.factorial(r), -1, MODULUS) for r in range(size)]

    def series(u: int) -> int:
        values, square, power = [], u * u % MODULUS, u % MODULUS
        for w in weights:
            values.append((power * w % MODULUS).to_bytes(slot, "little"))
            power = power * square % MODULUS
        return int.from_bytes(b"".join(values), "little")

    edges = {None: 1}  # the added vertex's edge: the unit series
    for i in range(geometry.ground):
        for j in range(i + 1, geometry.ground):
            forms = [series(u) for u in edge_forms(geometry, i + 1, j + 1, point)]
            edges[i, j] = forms[0] if len(forms) == 1 else reduced(forms[0] * forms[1] & truncate)
    fold = _walk_plan(geometry.ground, 1, lambda edge, minor: edges[edge] * minor,
                      lambda plus, minus: reduced(sum(plus) + offset - sum(minus) & truncate))
    top = fold >> width * m & (1 << width) - 1
    c = c_coefficient(spec.rank, geometry.k, m) * math.factorial(m)
    return top * c.numerator * pow(c.denominator, -1, MODULUS) % MODULUS


def exact_sign_fold(spec: ArrangementSpec, center: Sequence, degree_cap: int) -> Tuple[Fraction, Fraction]:
    """(W, B) with W an exact rational equal to the pizza quantity at radius
    one divided by the positive prefactor 2^(k/2) * beta_(n-k), and B a
    rational bound with |true/prefactor - W| <= B.  sign(W) is the sign of
    the quantity whenever |W| > B.

    Exactness sidesteps the float cancellation across matchings, which is
    catastrophic here: the fold is orders of magnitude smaller than its
    individual terms near the origin.  Float centers convert exactly (they
    are dyadic rationals), so the verdict applies to the center as given.

    Per matching, the unnormalized pairings u are the unit-form values
    scaled by sqrt(2)^k, and the block of degree 2m+k scales by 2^m more
    than the unit-form block of the quantity, so

        W = sum_m 2^-m Z_(2m+k)(center),  2m+k <= degree_cap,

    with Z_d from fold_at.  B is sign_fold_tails(spec, center)(degree_cap).
    Its checks run before the fold, the cheapest first: coefficients no
    longer growing past the cap, at most MAX_TAIL_MATCHINGS matchings, and
    the center inside the unit ball, which needs the walk over the
    matchings' radii.
    """
    geometry, _, m_top = _exact_frame(spec, center, degree_cap)
    _require_decaying(spec.rank, geometry.k, m_top, "cap too small: coefficients")  # before any walk
    bound = sign_fold_tails(spec, center)(degree_cap)
    folds = fold_at(spec, center, degree_cap)
    return sum(z / (1 << ((d - geometry.k) // 2)) for d, z in folds.items()), bound


def sign_fold_tails(spec: ArrangementSpec, center: Sequence) -> Callable[[int], Fraction]:
    """The bound B of exact_sign_fold(spec, center, degree_cap) as a function
    of degree_cap, without folding.  With m_top = (degree_cap - k) // 2,

        B = 2^ceil(k/2) |c_(m_top+1)| sum_M s_M^(m_top+1) / (1 - s_M),

    s_M = sum(u^2)/2 < 1 the squared radius of matching M.  Each term is the
    geometric tail of one matching's series, stated for unit pairings;
    2^ceil(k/2) >= 2^(k/2) lifts it to the unnormalized ones.  It is valid
    once the coefficients |c_m| stop growing past m_top + 1, which is
    checked for every cap (_require_decaying).

    On the integer forms U = u D of _edge_forms, q_M = sum(U^2) and
    R = 2 D^2 give s_M = q_M / R, so the sum is
    sum_M q_M^(m_top+1) / (R^m_top (R - q_M)).  Equal radii are counted
    once, with their multiplicity (_squared_radii, which enumerates no
    matching), and the 1/(R - q) are put over one common denominator, so
    each B is one integer sum.  The histogram and that denominator are built
    once per center, when this is called: the last center's bound is
    cached.  The refusals come in this order, all before any cap is read:
    more than MAX_TAIL_MATCHINGS matchings raise ValueError before the
    walk, and a center outside the unit ball, max q_M >= R, raises
    DivergentRegion after it.  Each cap is then checked by
    _require_decaying."""
    return _center_tails(spec, tuple(Fraction(x) for x in center))


@lru_cache(maxsize=1)
def _center_tails(spec: ArrangementSpec, center: Tuple[Fraction, ...]) -> Callable[[int], Fraction]:
    geometry = fold_parameters(spec)
    n, k, matchings = spec.rank, geometry.k, count_matchings(geometry.ground)
    if matchings > MAX_TAIL_MATCHINGS:
        raise ValueError(f"{matchings} matchings exceed the tail bound's cap of {MAX_TAIL_MATCHINGS}")
    forms, denominator = _edge_forms(geometry, center)
    radius_square = 2 * denominator * denominator  # s = 1 in the units of sum(U^2)
    counts = _squared_radii(geometry.ground, forms)
    if max(counts) >= radius_square:
        raise DivergentRegion("exact fold needs the center strictly inside the unit ball")
    common = math.lcm(*(radius_square - q for q in counts))
    terms = [(q, count * (common // (radius_square - q))) for q, count in counts.items()]

    def bound(degree_cap: int) -> Fraction:
        m_top = (degree_cap - k) // 2
        _require_decaying(n, k, m_top, "cap too small: coefficients")
        tails = sum(w * q ** (m_top + 1) for q, w in terms)
        return ((1 << (k + 1) // 2) * abs(c_coefficient(n, k, m_top + 1))
                * Fraction(tails, common * radius_square ** m_top))
    return bound


def _squared_radii(ground: int, forms: Dict[Tuple[int, int], Tuple[int, ...]]) -> Dict[int, int]:
    """{q: the number of maximal matchings M of the ground set with
    q = sum(U^2) over M's forms}, from the edges' integer forms U
    (_edge_forms), without enumerating a matching.

    It walks the plan unsigned (_walk_plan): a state maps q to its count, a
    term (edge, minor), plus or minus alike, is the minor's counts with the
    shift they take, the edge's sum(U^2) (0 for None, the added vertex's
    edge), and a state adds its terms' counts at their shifted radii, so no
    histogram is copied per term and the whole set counts every matching
    once."""
    squares = {(i - 1, j - 1): sum(v * v for v in values) for (i, j), values in forms.items()}

    def combine(plus: list, minus: list) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for shift, counts in plus + minus:
            for q, count in counts.items():
                merged[q + shift] = merged.get(q + shift, 0) + count
        return merged
    return _walk_plan(ground, {0: 1}, lambda edge, counts: (squares.get(edge, 0), counts), combine)


def _require_decaying(n: int, k: int, m_top: int, what: str) -> None:
    """The geometric tail bound needs |c_m| non-increasing past m_top + 1.

    |c_m / c_(m-1)| = |m - 1 - (n-k)/2| / m exceeds 1 exactly when
    4m < n - k + 2, so past m_top + 1 the coefficients can grow only at the
    first step, m = m_top + 2; `what` names the failing cap in the error."""
    if 4 * (m_top + 2) < n - k + 2:
        raise ValueError(f"{what} still growing at m={m_top + 2}")


# ---------------------------------------------------------------------------
# the series oracles: exact integer series, converted to float once
# ---------------------------------------------------------------------------


def a1k_pizza_series(n: int, k: int, coords: Sequence[float],
                     degree_cap: int) -> Tuple[float, float]:
    """Series value of the pizza quantity for k orthogonal coordinate
    hyperplanes in dimension n, with a rigorous tail bound:

        2^k * beta_(n-k) * sum over block degrees 2m+k <= degree_cap of T_(2m+k),

    T_(2m+k) = c_m * sum over |r| = m of the multinomial times
    prod x_i^(2 r_i + 1)/(2 r_i + 1).  That inner sum is the binomial
    convolution of the coordinates' series x^(2r+1)/(2r+1), computed on the
    integers U = x D (D the lcm of the coordinates' denominators) by
    _forms_series, the per-edge loop of _signed_sums, so

        T_(2m+k) = c_m S[m] / (D^(2m+k) O^k).

    The sum is exact and converted to float once.  Requires
    s = sum(coords^2) < 1 strictly.

    Tail: |T_(2m+k)| <= |c_m| s^m, since the inner sum is bounded by s^m
    and each |x_i| < 1.  Once the ratios |c_(m+1)/c_m| stay <= 1
    (_require_decaying) the remainder is dominated by the geometric bound
    |c_(m_top+1)| s^(m_top+1) / (1 - s).
    """
    if len(coords) != k:
        raise ValueError(f"need {k} coordinates, got {len(coords)}")
    exact = [Fraction(x) for x in coords]
    s = sum(x * x for x in exact)
    if s >= 1:
        raise DivergentRegion("the squared coordinates sum to 1 or more: outside the open "
                              "convergence region, the unit ball")
    _require_cap(degree_cap, k)
    m_top = (degree_cap - k) // 2
    _require_decaying(n, k, m_top, f"degree_cap {degree_cap} too small: series coefficients")
    denominator = math.lcm(*(x.denominator for x in exact))
    odd, weights, comb = _series_weights(m_top)
    series = _forms_series([x.numerator * (denominator // x.denominator) for x in exact],
                           weights, comb)
    value = sum(c_coefficient(n, k, m) * Fraction(t, denominator ** (2 * m + k))
                for m, t in enumerate(series)) / odd**k
    tail = abs(c_coefficient(n, k, m_top + 1)) * s ** (m_top + 1) / (1 - s)
    prefactor = 2**k * ball_volume(n - k)
    return prefactor * float(value), prefactor * float(tail)


def sum_over_2structures(spec: ArrangementSpec, ball: BallSpec,
                         degree_cap: int) -> Tuple[float, float]:
    """(value, tail bound) of the pizza quantity of a ball as the signed
    sum over the maximal matchings of their subsystems' series:
    exact_sign_fold at the center scaled to radius one, times the prefactor
    2^(k/2) beta_(n-k) and R^n (the value scales by R^dim and the center
    contracts to a/R), with exact_sign_fold's rigorous bound scaled alike.
    Both are exact until the one conversion to float.

    It refuses a family other than A or D, a center of the wrong dimension,
    a cap outside [k, MAX_DEGREE_CAP] (the three by _exact_frame), a type A
    center off the sum-zero hyperplane, a radius whose ball volume is not a
    positive finite float (radius_power), a scaled center outside the open
    unit ball, and the tail bound's refusals (sign_fold_tails)."""
    geometry, center, _ = _exact_frame(spec, ball.center, degree_cap)
    require_sum_zero(spec, ball.center, ball.radius)
    power = radius_power(ball.radius, spec.rank)
    radius = Fraction(ball.radius)
    center = [x / radius for x in center]
    if sum(x * x for x in center) >= 1:
        raise DivergentRegion("series route needs the center strictly inside the unit ball")
    value, tail = exact_sign_fold(spec, center, degree_cap)
    scale = power * 2 ** (geometry.k / 2) * ball_volume(spec.rank - geometry.k)
    return scale * float(value), scale * float(tail)
