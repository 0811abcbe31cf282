import math
from fractions import Fraction

import pytest

from coxpizza import matchings as mt
from coxpizza.matchings import enumerate_matchings, form_values
from coxpizza.oracle import (BallSpec, DivergentRegion, McEstimate, _c_sequence,
                             _require_decaying, a1k_pizza_quadrature, a1k_pizza_series, auto_degree_cap,
                             ball_volume, exact_sign_fold, fold_at, mc_pizza,
                             random_interior_centers, sum_over_2structures)
from coxpizza.rootsys import make_spec
from coxpizza.taylor import c_coefficient, fold_parameters, quotient, z_poly
from coxpizza.polyring import vandermonde

SEED = 90210


def test_ball_volumes():
    assert ball_volume(0) == 1.0
    assert math.isclose(ball_volume(1), 2.0, rel_tol=1e-14)
    assert math.isclose(ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-14)


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec((0.0,), 0.0)
    assert BallSpec((0.3, 0.0), 1.0).contains_origin()
    assert not BallSpec((2.0, 0.0), 1.0).contains_origin()


# -- Monte Carlo -------------------------------------------------------------


def test_mc_exact_segment_difference():
    # one hyperplane on a line: the quantity is (a+R) - (R-a) = 2a exactly
    spec = make_spec("A1k", 1, 1)
    est = mc_pizza(spec, BallSpec((0.37,), 1.0), 400_000, SEED)
    assert abs(est.value - 0.74) <= 3 * est.std_error


def test_mc_seeded_reproducibility():
    spec = make_spec("D", 3)
    ball = BallSpec((0.25, 0.1, 0.03), 1.0)
    first = mc_pizza(spec, ball, 150_000, SEED)
    second = mc_pizza(spec, ball, 150_000, SEED)
    assert first == second
    assert isinstance(first, McEstimate) and first.seed == SEED


def test_mc_independent_of_thread_count():
    spec = make_spec("A", 2)
    ball = BallSpec((0.2, -0.05, -0.15), 1.0)
    assert mc_pizza(spec, ball, 200_000, SEED) == mc_pizza(spec, ball, 200_000, SEED, threads=4)


def test_mc_same_parity_vanishes():
    spec = make_spec("A", 4)
    ball = BallSpec((0.2, -0.1, 0.05, -0.1, -0.05), 1.0)
    est = mc_pizza(spec, ball, 400_000, SEED)
    assert abs(est.value) <= 3 * est.std_error


def test_mc_radius_scaling_law():
    spec = make_spec("A1k", 2, 2)
    a = (0.3, 0.2)
    big = mc_pizza(spec, BallSpec(a, 2.0), 400_000, SEED)
    unit = mc_pizza(spec, BallSpec(tuple(x / 2.0 for x in a), 1.0), 400_000, SEED + 1)
    scale = 2.0**2
    band = 3 * (big.std_error + scale * unit.std_error)
    assert abs(big.value - scale * unit.value) <= band


def test_mc_sign_flips_under_reflection():
    spec = make_spec("A1k", 2, 2)
    a = (0.35, 0.2)
    flipped = (-0.35, 0.2)
    plus = mc_pizza(spec, BallSpec(a, 1.0), 400_000, SEED)
    minus = mc_pizza(spec, BallSpec(flipped, 1.0), 400_000, SEED + 1)
    assert abs(plus.value + minus.value) <= 3 * (plus.std_error + minus.std_error)


def test_mc_type_a_requires_sum_zero_center():
    with pytest.raises(ValueError):
        mc_pizza(make_spec("A", 2), BallSpec((0.5, 0.1, 0.1), 1.0), 100, SEED)


def test_mc_rejects_bad_dimension():
    with pytest.raises(ValueError):
        mc_pizza(make_spec("D", 3), BallSpec((0.1, 0.2), 1.0), 100, SEED)


# -- series and quadrature ---------------------------------------------------


def test_series_zero_at_origin():
    value, tail = a1k_pizza_series(5, 3, [0.0, 0.0, 0.0], 21)
    assert value == 0.0 and tail >= 0.0


def test_series_single_hyperplane_line_is_exact():
    # (n-k)/2 = 0: only the degree-1 block survives, value is 2a exactly
    value, tail = a1k_pizza_series(1, 1, [0.41], 7)
    assert math.isclose(value, 0.82, rel_tol=1e-15)
    assert tail == 0.0


def test_series_matches_quadrature_k1():
    value, tail = a1k_pizza_series(2, 1, [0.3], 61)
    quad = a1k_pizza_quadrature(2, 1, [0.3])
    assert abs(value - quad) <= max(tail, 1e-10)


def test_series_matches_quadrature_k2_negative_coordinate():
    value, tail = a1k_pizza_series(3, 2, [0.25, -0.4], 81)
    quad = a1k_pizza_quadrature(3, 2, [0.25, -0.4])
    assert abs(value - quad) <= max(tail, 1e-10)


def test_series_tail_brackets_truth():
    quad = a1k_pizza_quadrature(4, 2, [0.35, 0.3])
    for cap in (12, 22, 42):
        value, tail = a1k_pizza_series(4, 2, [0.35, 0.3], cap)
        assert abs(value - quad) <= tail + 1e-10


def test_series_divergent_region():
    with pytest.raises(DivergentRegion):
        a1k_pizza_series(3, 2, [0.9, 0.9], 21)


def test_quadrature_closed_form_arcsin():
    a = 0.5
    got = a1k_pizza_quadrature(2, 1, [a])
    expected = 2.0 * ball_volume(1) * 0.5 * (a * math.sqrt(1 - a * a) + math.asin(a))
    assert abs(got - expected) <= 1e-12


def test_quadrature_polynomial_case_exact():
    # n=3, k=1: integrand 1 - t^2, antiderivative x - x^3/3
    a = 0.62
    got = a1k_pizza_quadrature(3, 1, [a])
    expected = 2.0 * ball_volume(2) * (a - a**3 / 3.0)
    assert abs(got - expected) <= 1e-12


def test_quadrature_odd_in_each_coordinate():
    plus = a1k_pizza_quadrature(4, 2, [0.3, 0.25])
    minus = a1k_pizza_quadrature(4, 2, [-0.3, 0.25])
    assert abs(plus + minus) <= 1e-12


def test_quadrature_rejects_big_k():
    with pytest.raises(ValueError):
        a1k_pizza_quadrature(5, 4, [0.1] * 4)


def test_auto_degree_cap_controls_tail():
    n, k, s = 3, 2, 0.4
    cap = auto_degree_cap(n, k, s, 1e-9)
    coords = [math.sqrt(s / k)] * k
    _, tail = a1k_pizza_series(n, k, coords, cap)
    assert tail < 1e-9


# -- fold of the series over matchings ----------------------------------------


def test_sum2s_agrees_with_mc():
    cases = [
        (make_spec("A", 2), (0.2, -0.05, -0.15)),
        (make_spec("D", 3), (0.25, 0.1, 0.03)),
    ]
    for spec, center in cases:
        ball = BallSpec(center, 1.0)
        value, tail = sum_over_2structures(spec, ball, 41)
        est = mc_pizza(spec, ball, 400_000, SEED)
        assert abs(est.value - value) <= 3 * est.std_error + tail, spec


def test_sum2s_radius_normalization():
    spec = make_spec("D", 3)
    a = (0.25, 0.1, 0.03)
    v1, t1 = sum_over_2structures(spec, BallSpec(a, 1.0), 41)
    v2, t2 = sum_over_2structures(spec, BallSpec(tuple(2 * x for x in a), 2.0), 41)
    assert math.isclose(v2, 2.0**3 * v1, rel_tol=1e-12)


def test_sum2s_truncation_matches_symbolic_partial_sum():
    # the float fold truncated at a cap must equal the exact fold polynomials
    # evaluated and summed to the same cap, up to float roundoff
    cases = [(make_spec("A", 2), 13), (make_spec("A", 3), 12), (make_spec("D", 3), 12)]
    for spec, cap in cases:
        own_centers = random_interior_centers(spec, 5, SEED)
        k = fold_parameters(spec).k
        prefactor = 2**k * ball_volume(spec.rank - k)
        for center in own_centers:
            direct, _ = sum_over_2structures(spec, BallSpec(center, 1.0), cap)
            symbolic = 0.0
            for d in range(1, cap + 1):
                z = z_poly(spec, d)
                if not z.is_zero():
                    symbolic += z.evaluate(list(center)) * 2.0 ** (-d / 2.0)
            symbolic *= prefactor
            scale = max(abs(direct), abs(symbolic), 1e-30)
            assert abs(direct - symbolic) <= 1e-9 * scale + 1e-18, (spec, center)


def test_exact_sign_fold_matches_float_route():
    spec = make_spec("A", 2)
    center = (0.25, -0.0625, -0.1875)
    value, bound = exact_sign_fold(spec, center, 41)
    k = 1
    prefactor = 2 ** (k / 2.0) * ball_volume(spec.rank - k)
    float_value, float_tail = sum_over_2structures(spec, BallSpec(center, 1.0), 41)
    assert math.isclose(float(value) * prefactor, float_value, rel_tol=1e-10)
    assert abs(value) > bound


def _reference_inner_series(n, k, pairings, m_top):
    """One matching in Fraction arithmetic: sum_m 2^-m c_m conv[m], conv the
    binomial convolution of u^(2r+1)/(2r+1) across the pairings u, and the
    tail bound sum_(m>m_top) |c_m| s^m <= |c_(m_top+1)| s^(m_top+1)/(1-s)."""
    s = sum(u * u for u in pairings) / 2
    if s >= 1:
        raise DivergentRegion("exact fold needs the center strictly inside the unit ball")
    size = m_top + 1
    conv = None
    for u in pairings:
        g = [Fraction(0)] * size
        g[0] = Fraction(u)
        for r in range(1, size):
            g[r] = g[r - 1] * u * u * (2 * r - 1) / (2 * r + 1)
        if conv is None:
            conv = g
        else:
            conv = [sum(math.comb(m, j) * conv[j] * g[m - j] for j in range(m + 1))
                    for m in range(size)]
    value = sum(c_coefficient(n, k, m) * Fraction(1, 2**m) * conv[m] for m in range(size))
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
    return value, c_next * s ** (m_top + 1) / (1 - s)


def _reference_sign_fold(spec, center, degree_cap):
    """exact_sign_fold matching by matching, all in Fraction arithmetic."""
    geometry = fold_parameters(spec)
    k = geometry.k
    m_top = (degree_cap - k) // 2
    exact_center = [Fraction(x) for x in center]
    value = bound = Fraction(0)
    for matching in enumerate_matchings(geometry.ground):
        pairings = list(form_values(geometry, matching, exact_center))
        v, t = _reference_inner_series(spec.rank, k, pairings, m_top)
        value += mt.sign(matching) * v
        bound += (1 << ((k + 1) // 2)) * t
    return value, bound


def _reference_centers(spec):
    dim = spec.ambient_dim
    dyadic = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    decimal = tuple((0.1, -0.07, 0.13, -0.05, 0.02, 0.11, -0.09)[:dim])
    thirds_fifths = tuple(Fraction((-1) ** i, 3 + 2 * i) for i in range(dim))  # 1/3, -1/5, ..
    return {"dyadic": dyadic, "decimal": decimal, "thirds_fifths": thirds_fifths}


@pytest.mark.parametrize("center_kind", ["dyadic", "decimal", "thirds_fifths"])
@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 6), ("D", 3), ("D", 5)])
def test_exact_sign_fold_matches_reference(family, rank, center_kind):
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    center = _reference_centers(spec)[center_kind]
    odd_cap = k + 9 if k % 2 == 0 else k + 10
    for cap in (k, odd_cap):
        assert exact_sign_fold(spec, center, cap) == _reference_sign_fold(spec, center, cap)
    # grow the cap as the sign checker does, from the lowest block on, until
    # the band excludes zero; the early caps need escalating
    for escalations, cap in enumerate(range(k, k + 120, 6)):
        value, bound = exact_sign_fold(spec, center, cap)
        assert (value, bound) == _reference_sign_fold(spec, center, cap), cap
        if abs(value) > bound:
            break
    assert abs(value) > bound and escalations > 0


@pytest.mark.parametrize("family,rank,cap", [("A", 2, 9), ("A", 3, 12), ("D", 3, 12), ("D", 5, 22)])
def test_fold_at_matches_the_expanded_fold(family, rank, cap):
    # every degree k, k+2, .. <= cap, at an exact point off the type A
    # hyperplane and outside the unit ball: fold_at evaluates the polynomial
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    point = [Fraction(7 - 3 * i, 5 + i) for i in range(spec.ambient_dim)]
    values = fold_at(spec, point, cap)
    assert sorted(values) == list(range(k, cap + 1, 2))
    for d, value in values.items():
        z = z_poly(spec, d)
        expected = sum((c * math.prod(x**e for x, e in zip(point, mono))
                        for mono, c in z.terms.items()), Fraction(0))
        assert value == expected, (family, rank, d)


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 6), ("D", 5)])
def test_exact_sign_fold_is_the_normalized_sum_of_fold_at(family, rank):
    # both read _signed_sums: W = sum_m 2^-m Z_(2m+k) at the center
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    center = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    value, _ = exact_sign_fold(spec, center, k + 12)
    folds = fold_at(spec, center, k + 12)
    assert value == sum(Fraction(z, 1 << ((d - k) // 2)) for d, z in folds.items())


def test_fold_at_shares_the_exact_fold_checks():
    with pytest.raises(ValueError, match="families A and D, not I2"):
        fold_at(make_spec("I2", 5), (1, 2), 9)
    with pytest.raises(ValueError, match="center has dimension 4, expected 3"):
        fold_at(make_spec("D", 3), (1, 2, 3, 4), 9)
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        fold_at(make_spec("D", 5), (1, 2, 3, 4, 5), 3)


def test_sum2s_refuses_type_a_center_off_the_hyperplane():
    with pytest.raises(ValueError, match=r"type A centers must satisfy sum\(a\) = 0"):
        sum_over_2structures(make_spec("A", 2), BallSpec((0.1, 0.2, 0.3), 1.0), 21)


def test_exact_sign_fold_outside_unit_ball():
    for spec, center in ((make_spec("D", 3), (0.9, 0.5, 0.25)),
                         (make_spec("A", 2), (0.9, -0.6, -0.3))):
        for fold in (exact_sign_fold, _reference_sign_fold):
            with pytest.raises(DivergentRegion, match="strictly inside the unit ball"):
                fold(spec, center, 21)


def test_exact_sign_fold_rejects_growing_coefficients():
    # A_14: (n-k)/2 = 7/2, so |c_2/c_1| = 5/4 > 1; caps 7 and 8 stop at m_top = 0.
    # Raised at the first matching, before the other 2,027,024 are visited.
    spec = make_spec("A", 14)
    inside = tuple(Fraction(i - 7, 256) for i in range(15))
    with pytest.raises(ValueError, match="cap too small: coefficients still growing at m=2"):
        exact_sign_fold(spec, inside, 8)
    # the first matching's radius is checked first
    outside = (Fraction(3, 4), Fraction(-3, 4)) + (Fraction(0),) * 13
    with pytest.raises(DivergentRegion):
        exact_sign_fold(spec, outside, 8)


def _reference_growth(c_next, alpha, m_top):
    """The loop the decay guards ran before the closed form, on Fractions or
    floats: the first m past m_top + 1 at which |c_m| grows, or None."""
    prev = abs(c_next)
    for m in range(m_top + 2, m_top + 64):
        cur = prev * abs(m - 1 - alpha) / m
        if prev and cur > prev:
            return m
        if cur == 0:
            break
        prev = cur
    return None


def _guard_growth(n, k, m_top):
    try:
        _require_decaying(n, k, m_top, "cap too small: coefficients")
    except ValueError as exc:
        prefix, m = str(exc).rsplit("=", 1)
        assert prefix == "cap too small: coefficients still growing at m"
        return int(m)
    return None


def test_decay_guard_matches_the_growth_loops():
    # the float loop of the series route on n < 40, k <= n, m_top < 40; the
    # exact loop of the sign fold on m_top < 12 (it is slow, and for n < 40
    # growth stops by m_top = 8)
    for n in range(1, 40):
        for k in range(1, n + 1):
            c_float = _c_sequence(n, k, 40)
            c_exact = Fraction(1)
            for m_top in range(40):
                c_exact *= Fraction(m_top - Fraction(n - k, 2), m_top + 1)  # now c_(m_top+1)
                expected = _reference_growth(float(c_float[m_top + 1]), 0.5 * (n - k), m_top)
                assert _guard_growth(n, k, m_top) == expected, (n, k, m_top)
                if m_top < 12:
                    assert _reference_growth(c_exact, Fraction(n - k, 2), m_top) == expected


def test_series_route_rejects_growing_coefficients():
    # (n-k)/2 = 13/2 and m_top = 0: |c_2/c_1| = 11/4 > 1
    with pytest.raises(ValueError, match="^degree_cap 1 too small: series coefficients "
                                         "still growing at m=2$"):
        a1k_pizza_series(14, 1, [0.1], 1)
    a1k_pizza_series(14, 1, [0.1], 5)  # m_top = 2: decaying from m = 4 on


@pytest.mark.parametrize("family,rank,dim", [("D", 5, 7), ("D", 5, 4), ("A", 6, 8), ("A", 6, 6)])
def test_exact_sign_fold_rejects_wrong_center_dimension(family, rank, dim):
    center = (0.0625,) * dim
    with pytest.raises(ValueError, match=f"center has dimension {dim}, expected"):
        exact_sign_fold(make_spec(family, rank), center, 41)


@pytest.mark.parametrize("family,rank,cap", [("D", 5, 2), ("D", 5, 3), ("A", 6, 2)])
def test_degree_cap_below_block_degree_rejected(family, rank, cap):
    # the lowest nonzero block has degree k (4 for D_5, 3 for A_6)
    spec = make_spec(family, rank)
    center = (0.0625,) * spec.ambient_dim
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        exact_sign_fold(spec, center, cap)
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        sum_over_2structures(spec, BallSpec(center, 1.0), cap)


def test_exact_sign_fold_sign_matches_leading_term():
    # near the origin the sign is the sign of (lead quotient) x (Jacobian)
    spec = make_spec("D", 5)
    lead = quotient(spec, 20).coefficient((0,) * 5)
    vand = vandermonde(5, squared=True)
    for center in random_interior_centers(spec, 3, SEED, radius=0.3):
        value, bound = exact_sign_fold(spec, center, auto_degree_cap(5, 4, 0.5, 1e-12))
        if abs(value) <= bound:
            value, bound = exact_sign_fold(spec, center, 240)
        assert abs(value) > bound
        jac = vand.evaluate(list(center))
        assert (value > 0) == (float(lead) * jac > 0)


def test_centers_generator_properties():
    for spec in (make_spec("A", 3), make_spec("D", 5)):
        centers = random_interior_centers(spec, 4, SEED)
        assert len(centers) == 4
        for c in centers:
            assert all(abs(x * 256 - round(x * 256)) < 1e-9 for x in c)
            if spec.family == "A":
                assert abs(sum(c)) < 1e-12
        assert centers == random_interior_centers(spec, 4, SEED)


def test_centers_generator_gives_up_when_no_draw_meets_the_margin():
    # at the defaults no D_7 draw in practice keeps every pairing >= 0.03
    with pytest.raises(ValueError, match=r"D:7.*radius 0\.4.*margin 0\.03"):
        random_interior_centers(make_spec("D", 7), 3, SEED)
