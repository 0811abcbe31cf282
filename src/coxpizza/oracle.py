"""Numeric evaluation of pizza quantities.

Three independent routes:

  * mc_pizza           -- Monte Carlo over a ball: sample uniformly, weight
                          by the chamber sign, scale by the ball volume.
  * a1k_pizza_series   -- for k orthogonal coordinate hyperplanes, the
                          convergent series sum of the Taylor blocks, with a
                          rigorous geometric tail bound.
  * a1k_pizza_quadrature -- the same value by nested adaptive quadrature of
                          2^k * beta_(n-k) * int_0^x1 .. int_0^xk (1 - sum t^2)^((n-k)/2).

sum_over_2structures folds the series evaluator over all matching-indexed
orthogonal subsystems with their signs, giving a semi-exact evaluator for
types A and D that the symbolic pipeline is validated against.

One exact point evaluator, _signed_sums, serves two callers.  It clears the
pairings at a point to integers by one common denominator and adds the
matchings' integer series with their signs into one sum per degree:

  * exact_sign_fold  -- the same fold as sum_over_2structures in exact
                        arithmetic, with a rational tail bound, for sign
                        verdicts; the series coefficients and the
                        denominators are applied once at the end.
  * fold_at          -- the exact values Z_d(point) of the symbolic fold
                        (z_poly's convention) at any exact point, degree by
                        degree; the tests check the quotients with it at
                        seeded integer points (Z_d = 2^shift Q J, and Z_d
                        alternates under transpositions) without expanding
                        the fold.

Type A lives on the hyperplane sum(a) = 0 inside R^(n+1); sampling happens
in an explicit orthonormal basis of that subspace, so volumes are the
n-dimensional ones.  mc_pizza, sum_over_2structures and the sign checks
refuse type A centers off that hyperplane (require_sum_zero); the exact
evaluators take any point of the ambient space, where their sums are
still defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import matchings as mt
from .matchings import FoldGeometry, enumerate_matchings, fold_parameters, form_values
from .rootsys import ArrangementSpec, numeric_roots
from .taylor import c_coefficient

_CHUNK = 1 << 16
_HYPERPLANE_TOL = 1e-12
_MAX_REJECTED_DRAWS = 20_000


class DivergentRegion(ValueError):
    """Series evaluation requested outside its open disk of convergence."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def ball_volume(dim: int) -> float:
    """Volume of the unit ball: pi^(dim/2) / Gamma(dim/2 + 1)."""
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    return math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1)) if dim else 1.0


@dataclass(frozen=True)
class BallSpec:
    center: Tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def contains_origin(self) -> bool:
        return self.radius >= math.sqrt(sum(x * x for x in self.center))


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int


def _subspace_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the sum-zero hyperplane in R^dim,
    deterministic (Helmert construction)."""
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


def require_sum_zero(spec: ArrangementSpec, center: Sequence[float], radius: float = 1.0) -> None:
    """Type A lives on the hyperplane sum(a) = 0: refuse a center off it
    (up to 1e-9 relative to the radius, at least 1)."""
    if spec.family == "A" and abs(sum(center)) > 1e-9 * max(1.0, radius):
        raise ValueError("type A centers must satisfy sum(a) = 0")


def mc_pizza(spec: ArrangementSpec, ball: BallSpec, samples: int, seed: int,
             threads: int = 1) -> McEstimate:
    """Monte Carlo estimate: Vol(ball) * mean of the chamber sign over
    uniform samples.  Points within 1e-12 of a hyperplane are resampled.

    Chunked with counter-derived sub-seeds, so the estimate depends only on
    (seed, samples), not on threading or chunk boundaries.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(ball.center) != spec.ambient_dim:
        raise ValueError(f"center has dimension {len(ball.center)}, expected {spec.ambient_dim}")
    dim, embed = _sampling_frame(spec)
    require_sum_zero(spec, ball.center, ball.radius)
    roots = np.array(numeric_roots(spec))  # rows are unit roots in ambient coords
    center = np.array(ball.center, dtype=float)
    volume = ball_volume(dim) * ball.radius**dim

    sign_sum = 0
    nchunks = (samples + _CHUNK - 1) // _CHUNK

    def run_chunk(ci: int) -> int:
        count = min(_CHUNK, samples - ci * _CHUNK)
        rng = np.random.default_rng([seed, ci])
        total = 0
        remaining = count
        while remaining:
            direction = rng.normal(size=(remaining, dim))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = ball.radius * rng.random(remaining) ** (1.0 / dim)
            local = direction * radii[:, None]
            points = center + (local @ embed.T if embed is not None else local)
            pairings = points @ roots.T
            on_wall = np.any(np.abs(pairings) <= _HYPERPLANE_TOL, axis=1)
            good = pairings[~on_wall]
            negatives = np.count_nonzero(good < 0, axis=1)
            total += int(np.sum(1 - 2 * (negatives & 1)))
            remaining -= good.shape[0]
        return total

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            sign_sum = sum(pool.map(run_chunk, range(nchunks)))
    else:
        for ci in range(nchunks):
            sign_sum += run_chunk(ci)

    mean = sign_sum / samples
    if samples > 1:
        variance = (samples - samples * mean * mean) / (samples - 1)
        std_error = volume * math.sqrt(max(variance, 0.0) / samples)
    else:
        std_error = volume
    return McEstimate(volume * mean, std_error, samples, seed)


def random_interior_centers(spec: ArrangementSpec, count: int, seed: int,
                            radius: float = 0.4, margin: float = 0.03) -> List[Tuple[float, ...]]:
    """Seeded centers strictly inside chambers: norm at most `radius`, every
    unit-root pairing at least `margin` in absolute value.  Type A centers
    are drawn inside the sum-zero subspace.

    Coordinates are quantized to multiples of 1/256, so they convert to
    small exact rationals for the exact sign fold.  Raises ValueError after
    _MAX_REJECTED_DRAWS consecutive draws fail the tests (at the defaults,
    D_7 and higher ranks practically never meet the margin)."""
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
# series evaluation with tail bound
# ---------------------------------------------------------------------------


def _c_sequence(n: int, k: int, m_top: int) -> np.ndarray:
    """Float values of the series coefficients c_0..c_(m_top), by the stable
    ratio recurrence c_m = c_(m-1) * (m - 1 - (n-k)/2) / m."""
    alpha = 0.5 * (n - k)
    out = np.empty(m_top + 1)
    out[0] = 1.0
    for m in range(1, m_top + 1):
        out[m] = out[m - 1] * (m - 1 - alpha) / m
    return out


def _binomial_convolve(a: np.ndarray, b: np.ndarray, comb: np.ndarray) -> np.ndarray:
    """c[m] = sum_j C(m, j) a[j] b[m-j], truncated to the common length."""
    size = len(a)
    out = np.empty(size)
    for m in range(size):
        out[m] = np.dot(comb[m, : m + 1] * a[: m + 1], b[m::-1])
    return out


def _series_core(n: int, k: int, coords: Sequence[float], degree_cap: int) -> Tuple[float, float]:
    """(sum of blocks through degree_cap, tail bound on the remainder).

    The blocks are summed via T_(2m+k) = c_m * sum over |r| = m of the
    multinomial times prod x_i^(2 r_i + 1)/(2 r_i + 1): per variable the
    sequence G_i[r] = x_i^(2r+1)/(2r+1) is binomially convolved across
    variables, then weighted by c_m.

    Tail: |block_(2m+k)(x)| <= |c_m| s^m with s = sum x_i^2 < 1, since the
    inner multinomial sum is bounded by s^m and each |x_i| < 1.  Once the
    ratios |c_(m+1)/c_m| stay <= 1 the remainder is dominated by the
    geometric bound |c_(M+1)| s^(M+1) / (1 - s); the ratio condition is
    checked explicitly.
    """
    s = float(sum(x * x for x in coords))
    if s >= 1.0:
        raise DivergentRegion(f"sum of squared coordinates {s} >= 1: outside the open convergence region")
    if degree_cap < k:
        raise ValueError("degree_cap below the lowest block degree")
    m_top = (degree_cap - k) // 2

    size = m_top + 1
    comb = np.zeros((size, size))
    comb[:, 0] = 1.0
    for m in range(1, size):
        comb[m, 1 : m + 1] = comb[m - 1, : m] + comb[m - 1, 1 : m + 1]

    running = None
    for x in coords:
        g = np.empty(size)
        g[0] = x
        xx = x * x
        for r in range(1, size):
            g[r] = g[r - 1] * xx * (2 * r - 1) / (2 * r + 1)
        running = g if running is None else _binomial_convolve(running, g, comb)

    c_seq = _c_sequence(n, k, m_top + 1)
    value = float(np.dot(c_seq[:size], running))

    _require_decaying(n, k, m_top, f"degree_cap {degree_cap} too small: series coefficients")
    tail = abs(c_seq[m_top + 1]) * s ** (m_top + 1) / (1.0 - s)
    return value, tail


def a1k_pizza_series(n: int, k: int, coords: Sequence[float],
                     degree_cap: int) -> Tuple[float, float]:
    """Series value of the pizza quantity for k orthogonal coordinate
    hyperplanes in dimension n, with a rigorous tail bound:

        2^k * beta_(n-k) * sum over block degrees d <= degree_cap

    Requires sum(coords^2) < 1 strictly.
    """
    if len(coords) != k:
        raise ValueError(f"need {k} coordinates, got {len(coords)}")
    prefactor = 2**k * ball_volume(n - k)
    value, tail = _series_core(n, k, coords, degree_cap)
    return prefactor * value, prefactor * tail


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


# ---------------------------------------------------------------------------
# exact sign fold (rational arithmetic, for sign verdicts)
# ---------------------------------------------------------------------------


def _int_binomial_convolve(a: List[int], b: List[int], comb: List[List[int]]) -> List[int]:
    """c[m] = sum_j C(m, j) a[j] b[m-j] on integers, truncated to len(comb)."""
    return [sum(c * x * y for c, x, y in zip(row, a, reversed(b[: m + 1])))
            for m, row in enumerate(comb)]


def _exact_frame(spec: ArrangementSpec, point: Sequence, degree_cap: int
                 ) -> Tuple[FoldGeometry, List[Fraction], int]:
    """(geometry, exact point, m_top) for the exact folds, after the checks
    they share: family A or D, the point's dimension, a cap of at least k."""
    if spec.family not in ("A", "D"):
        raise ValueError(f"exact fold applies to families A and D, not {spec.family}")
    if len(point) != spec.ambient_dim:
        raise ValueError(f"center has dimension {len(point)}, expected {spec.ambient_dim}")
    geometry = fold_parameters(spec)
    if degree_cap < geometry.k:
        raise ValueError("degree_cap below the lowest block degree")
    return geometry, [Fraction(x) for x in point], (degree_cap - geometry.k) // 2


def _signed_sums(geometry: FoldGeometry, matchings: Sequence[Tuple[int, tuple, List[Fraction]]],
                 m_top: int) -> Tuple[List[int], int, int, List[int]]:
    """The integer core of the exact folds: (S, D, O, squares) from the
    (sign, edges, pairings) of every matching at one point.

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
    quotients (Z_d = 2^shift Q J) without expanding the fold."""
    geometry, exact_point, m_top = _exact_frame(spec, point, degree_cap)
    k = geometry.k
    matchings = [(mt.sign(matching), matching.edges,
                  list(form_values(geometry, matching, exact_point)))
                 for matching in enumerate_matchings(geometry.ground)]
    signed, denominator, odd, _ = _signed_sums(geometry, matchings, m_top)
    return {2 * m + k: c_coefficient(spec.rank, k, m) * Fraction(s, denominator ** (2 * m + k))
            / odd**k for m, s in enumerate(signed)}


def exact_sign_fold(spec: ArrangementSpec, center: Sequence, degree_cap: int) -> Tuple[Fraction, Fraction]:
    """(W, B) with W an exact rational equal to the pizza quantity at radius
    one divided by the positive prefactor 2^(k/2) * beta_(n-k), and B a
    rational bound with |true/prefactor - W| <= B.  sign(W) is the sign of
    the quantity whenever |W| > B.

    Exactness sidesteps the float cancellation across matchings, which is
    catastrophic here: the fold is orders of magnitude smaller than its
    individual terms near the origin.  Float centers convert exactly (they
    are dyadic rationals), so the verdict applies to the center as given.

    Per matching, the unnormalized pairings u (the unit-form values scaled
    by sqrt(2)^k) give W_M = sum_m 2^-m c_m conv[m], where conv is the
    binomial convolution across the k forms of u^(2r+1)/(2r+1).  All of it
    runs on integers in _signed_sums, which returns the signed sums S[m]
    under the common denominators D and O, so that

        W = sum_m c_m 2^-m S[m] / (D^(2m+k) O^k),

    combined once at the end.  B sums the matching tail bounds
    2^ceil(k/2) |c_(m_top+1)| s^(m_top+1) / (1 - s), with s = sum(u^2)/2 < 1
    the matching's squared radius; the bound is valid once the coefficients
    |c_m| stop growing, which is checked.
    """
    geometry, exact_center, m_top = _exact_frame(spec, center, degree_cap)
    n, k = spec.rank, geometry.k
    size = m_top + 1
    c = [c_coefficient(n, k, m) for m in range(size + 1)]

    matchings = []
    for matching in enumerate_matchings(geometry.ground):
        pairings = list(form_values(geometry, matching, exact_center))
        if sum(u * u for u in pairings) >= 2:
            raise DivergentRegion("exact fold needs the center strictly inside the unit ball")
        if not matchings:  # the cap is checked after the first matching's radius
            _require_decaying(n, k, m_top, "cap too small: coefficients")
        matchings.append((mt.sign(matching), matching.edges, pairings))
    signed, denominator, odd, squares = _signed_sums(geometry, matchings, m_top)
    radius_square = 2 * denominator * denominator  # s = 1 in the units of sum(U^2)
    tails = sum((Fraction(q ** (m_top + 1), radius_square - q) for q in squares), Fraction(0))

    # W = sum_m c_m S[m] (2 D^2)^(m_top - m) / ((2 D^2)^m_top D^k O^k)
    total = sum(c[m] * (signed[m] * radius_square ** (m_top - m)) for m in range(size))
    value = Fraction(total) / (radius_square ** m_top * (denominator * odd) ** k)

    # per matching, with q = sum(U^2) = 2 D^2 s:
    # lift |c_next| s^(m_top+1) / (1 - s) = lift |c_next| q^(m_top+1) / ((2 D^2)^m_top (2 D^2 - q))
    lift = 1 << ((k + 1) // 2)  # tail bounds are stated for unit pairings; 2^ceil(k/2) >= 2^(k/2)
    bound = lift * abs(c[size]) * tails / radius_square ** m_top
    return value, bound


def _require_decaying(n: int, k: int, m_top: int, what: str) -> None:
    """The geometric tail bound needs |c_m| non-increasing past m_top + 1.

    |c_m / c_(m-1)| = |m - 1 - (n-k)/2| / m exceeds 1 exactly when
    4m < n - k + 2, so past m_top + 1 the coefficients can grow only at the
    first step, m = m_top + 2; `what` names the failing cap in the error."""
    m = m_top + 2
    if 4 * m < n - k + 2:
        raise ValueError(f"{what} still growing at m={m}")


# ---------------------------------------------------------------------------
# nested adaptive quadrature
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# fold of the series over all matching-indexed subsystems
# ---------------------------------------------------------------------------


def sum_over_2structures(spec: ArrangementSpec, ball: BallSpec,
                         degree_cap: int) -> Tuple[float, float]:
    """Signed sum of per-subsystem series values over all maximal matchings,
    with the per-matching tail bounds accumulated.

    General radii are reduced to radius one by homogeneity: the value scales
    by R^dim and the center contracts to a/R.
    """
    if spec.family not in ("A", "D"):
        raise ValueError(f"2-structure fold applies to families A and D, not {spec.family}")
    if len(ball.center) != spec.ambient_dim:
        raise ValueError(f"center has dimension {len(ball.center)}, expected {spec.ambient_dim}")
    n = spec.rank
    geometry = fold_parameters(spec)
    k = geometry.k
    if degree_cap < k:
        raise ValueError("degree_cap below the lowest block degree")
    require_sum_zero(spec, ball.center, ball.radius)
    scale = ball.radius ** n
    center = [x / ball.radius for x in ball.center]
    norm = math.sqrt(sum(x * x for x in center))
    if norm >= 1.0:
        raise DivergentRegion("series route needs the center strictly inside the unit ball")

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    prefactor = 2**k * ball_volume(n - k)
    value = 0.0
    tail = 0.0
    for matching in enumerate_matchings(geometry.ground):
        coords = [u * inv_sqrt2 for u in form_values(geometry, matching, center)]
        v, t = _series_core(n, k, coords, degree_cap)
        value += mt.sign(matching) * v
        tail += t
    return scale * prefactor * value, scale * prefactor * tail
