import math

import pytest

from coxpizza.oracle import (BallSpec, DivergentRegion, McEstimate,
                             a1k_pizza_quadrature, a1k_pizza_series, auto_degree_cap,
                             ball_volume, exact_sign_fold, mc_pizza,
                             random_interior_centers, sum_over_2structures)
from coxpizza.rootsys import make_spec
from coxpizza.taylor import fold_parameters, quotient, z_poly
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
