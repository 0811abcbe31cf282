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

Type A lives on the hyperplane sum(a) = 0 inside R^(n+1); sampling happens
in an explicit orthonormal basis of that subspace, so volumes are the
n-dimensional ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import matchings as mt
from .matchings import enumerate_matchings, fold_parameters, form_values
from .rootsys import ArrangementSpec, numeric_roots
from .taylor import c_coefficient

_CHUNK = 1 << 16
_HYPERPLANE_TOL = 1e-12


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
    if spec.family == "A" and abs(sum(ball.center)) > 1e-9 * max(1.0, ball.radius):
        raise ValueError("type A centers must satisfy sum(a) = 0")
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
    small exact rationals for the exact sign fold."""
    rng = np.random.default_rng([seed, 0x5EED])
    roots = np.array(numeric_roots(spec))
    dim, embed = _sampling_frame(spec)
    out: List[Tuple[float, ...]] = []
    while len(out) < count:
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

    c_next = abs(c_seq[m_top + 1])
    alpha = 0.5 * (n - k)
    prev = c_next
    for m in range(m_top + 2, m_top + 64):
        cur = prev * abs(m - 1 - alpha) / m
        if prev and cur > prev:
            raise ValueError(
                f"degree_cap {degree_cap} too small: series coefficients still growing at m={m}"
            )
        if cur == 0.0:
            break
        prev = cur
    tail = c_next * s ** (m_top + 1) / (1.0 - s)
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


def _exact_inner_series(n: int, k: int, pairings: Sequence[Fraction],
                        m_top: int) -> Tuple[Fraction, Fraction]:
    """Exact partial sum sum_m 2^-m c_m conv[m] over the unnormalized integer
    pairings u (the unit-form value scaled by sqrt(2)^k), plus the tail bound
    sum_(m>m_top) |c_m| s^m with s = sum(u^2)/2 < 1.

    conv is the binomial convolution across variables of u^(2r+1)/(2r+1),
    so 2^-m c_m conv[m] equals sqrt(2)^k times the block value at u/sqrt(2).
    """
    s = sum(u * u for u in pairings) / 2
    if s >= 1:
        raise DivergentRegion("exact fold needs the center strictly inside the unit ball")
    size = m_top + 1
    conv: Optional[List[Fraction]] = None
    for u in pairings:
        g = [Fraction(0)] * size
        g[0] = Fraction(u)
        uu = u * u
        for r in range(1, size):
            g[r] = g[r - 1] * uu * (2 * r - 1) / (2 * r + 1)
        if conv is None:
            conv = g
        else:
            nxt = [Fraction(0)] * size
            for m in range(size):
                total = Fraction(0)
                for j in range(m + 1):
                    if conv[j] and g[m - j]:
                        total += math.comb(m, j) * conv[j] * g[m - j]
                nxt[m] = total
            conv = nxt
    value = Fraction(0)
    half = Fraction(1, 2)
    weight = Fraction(1)
    for m in range(size):
        c = c_coefficient(n, k, m)
        if c and conv[m]:
            value += c * weight * conv[m]
        weight *= half
    c_next = abs(c_coefficient(n, k, m_top + 1))
    alpha = Fraction(n - k, 2)
    prev = c_next
    for m in range(m_top + 2, m_top + 64):
        cur = prev * abs(Fraction(m - 1) - alpha) / m
        if prev and cur > prev:
            raise ValueError(f"cap too small: coefficients still growing at m={m}")
        if cur == 0:
            break
        prev = cur
    tail = c_next * s ** (m_top + 1) / (1 - s)
    return value, tail


def exact_sign_fold(spec: ArrangementSpec, center: Sequence, degree_cap: int) -> Tuple[Fraction, Fraction]:
    """(W, B) with W an exact rational equal to the pizza quantity at radius
    one divided by the positive prefactor 2^(k/2) * beta_(n-k), and B a
    rational bound with |true/prefactor - W| <= B.  sign(W) is the sign of
    the quantity whenever |W| > B.

    Exactness sidesteps the float cancellation across matchings, which is
    catastrophic here: the fold is orders of magnitude smaller than its
    individual terms near the origin.  Float centers convert exactly (they
    are dyadic rationals), so the verdict applies to the center as given.
    """
    if spec.family not in ("A", "D"):
        raise ValueError(f"exact fold applies to families A and D, not {spec.family}")
    if len(center) != spec.ambient_dim:
        raise ValueError(f"center has dimension {len(center)}, expected {spec.ambient_dim}")
    exact_center = [Fraction(x) for x in center]
    n = spec.rank
    geometry = fold_parameters(spec)
    k = geometry.k
    if degree_cap < k:
        raise ValueError("degree_cap below the lowest block degree")
    m_top = (degree_cap - k) // 2
    # tail bounds are stated for unit pairings; lift them by 2^ceil(k/2) >= 2^(k/2)
    lift = 1 << ((k + 1) // 2)
    value = Fraction(0)
    bound = Fraction(0)
    for matching in enumerate_matchings(geometry.ground):
        pairings = list(form_values(geometry, matching, exact_center))
        v, t = _exact_inner_series(n, k, pairings, m_top)
        value += mt.sign(matching) * v
        bound += lift * t
    return value, bound


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
