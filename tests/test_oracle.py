import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from coxpizza import matchings as mt
from coxpizza import oracle
from coxpizza.conjectures import check_sign_A, check_sign_D
from coxpizza.matchings import c_coefficient, count_matchings, enumerate_matchings, fold_parameters
from coxpizza.oracle import (MODULUS, BallSpec, CenterSeries, DivergentRegion, McEstimate,
                             _edge_forms, _pfaffian_plan, _require_decaying, _signed_sums,
                             _squared_radii, _walk_plan, a1k_pizza_series, ball_volume, fold_mod,
                             fold_mod_work, mc_pizza, random_interior_centers, sum_over_2structures)
from coxpizza.rootsys import WALL_TOL, make_spec, numeric_roots
from coxpizza.taylor import quotient, z_poly
from reference import (a1k_pizza_quadrature, auto_degree_cap, coefficient, contains_origin,
                       evaluate, form_values, mc_chunk_by_norms, signed_sums_by_matchings,
                       squared_radii_by_matchings, vandermonde)

SEED = 90210


def test_ball_volumes():
    assert ball_volume(0) == 1.0
    assert math.isclose(ball_volume(1), 2.0, rel_tol=1e-14)
    assert math.isclose(ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-14)


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec((0.0,), 0.0)
    assert contains_origin(BallSpec((0.3, 0.0), 1.0))
    assert not contains_origin(BallSpec((2.0, 0.0), 1.0))


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


def test_mc_resamples_points_on_a_wall():
    # a ball of radius 1e-11 centred on the wall a_1 = a_2 puts many draws
    # within 1e-12 of it, so the redraw path runs in both chunks; the value
    # was pinned when every chunk still selected its rows draw by draw
    spec = make_spec("A", 2)
    ball = BallSpec((0.1, 0.1, -0.2), 1e-11)
    expected = McEstimate(2.1003790884000326e-24, 1.1873923549357048e-24, 70_000, 5)
    assert mc_pizza(spec, ball, 70_000, 5) == expected
    assert mc_pizza(spec, ball, 70_000, 5, threads=2) == expected


# repr((value, std_error)) at seed 7, recorded before the chunks were worked
# through in blocks; the sample counts end inside a block, inside a chunk and
# on several chunks, and the radius-1e-11 ball on the wall a_1 = a_2 redraws
_MC_BALLS = {
    "A2": (("A", 2), (0.2, -0.05, -0.15), 1.0),
    "A3": (("A", 3), (0.25, -0.0625, 0.125, -0.3125), 1.0),
    "A6": (("A", 6), tuple(x / 64 for x in (6, -5, 9, -3, 1, 7, -15)), 1.0),
    "D3": (("D", 3), (0.25, 0.1, 0.03), 1.0),
    "D5": (("D", 5), (0.2, -0.1, 0.15, 0.05, -0.12), 1.0),
    "D7": (("D", 7), (0.1, -0.07, 0.13, -0.05, 0.02, 0.11, -0.09), 1.0),
    "I2:5": (("I2", 5), (0.3, 0.1), 1.0),
    "A2-wall": (("A", 2), (0.1, 0.1, -0.2), 1e-11),
}
_MC_PINNED = {
    ("A2", 1): "(3.141592653589793, 3.141592653589793)",
    ("A2", 999): "(-0.022013161736865416, 0.09944293648637782)",
    ("A2", 20000): "(0.008168140899333461, 0.022214894985260244)",
    ("A2", 70000): "(-0.008796459430051421, 0.011874142386263562)",
    ("A2", 200000): "(-0.006251769380643688, 0.007024818383610458)",
    ("A3", 1): "(4.18879020478639, 4.18879020478639)",
    ("A3", 999): "(0.09643861332341037, 0.13255869110227422)",
    ("A3", 20000): "(-0.000418879020478639, 0.029619959947881504)",
    ("A3", 70000): "(0.008856299290119796, 0.01583221652416244)",
    ("A3", 200000): "(-0.01043008760991811, 0.00936641402103774)",
    ("A6", 1): "(-5.167712780049969, 5.167712780049969)",
    ("A6", 999): "(-0.06724751365430391, 0.16356723887216418)",
    ("A6", 20000): "(0.02893919156827983, 0.03654158807984578)",
    ("A6", 70000): "(0.03691223414321407, 0.019531759614131748)",
    ("A6", 200000): "(0.006046223952658464, 0.01155537804380052)",
    ("D3", 1): "(4.18879020478639, 4.18879020478639)",
    ("D3", 999): "(0.06289474781961546, 0.1325788895500326)",
    ("D3", 20000): "(0.014660765716752363, 0.029619778673170106)",
    ("D3", 70000): "(0.010053096491487334, 0.015832206313949382)",
    ("D3", 200000): "(-0.0038117990863556148, 0.009366439179347994)",
    ("D5", 1): "(5.263789013914326, 5.263789013914326)",
    ("D5", 999): "(0.25818384552732926, 0.16642177832698732)",
    ("D5", 20000): "(-0.04421582771688033, 0.03722022641578024)",
    ("D5", 70000): "(-0.024213429464005898, 0.019895184022839744)",
    ("D5", 200000): "(-0.011106594819359227, 0.011770193278788265)",
    ("D7", 1): "(-4.724765970331397, 4.724765970331397)",
    ("D7", 999): "(-0.1560733503713074, 0.14947823275594727)",
    ("D7", 20000): "(0.042995370330015714, 0.03340859246255527)",
    ("D7", 70000): "(0.024298796418847184, 0.017857828193389012)",
    ("D7", 200000): "(0.0034963268180452337, 0.010564921407105854)",
    ("I2:5", 1): "(3.141592653589793, 3.141592653589793)",
    ("I2:5", 999): "(0.166671081721981, 0.09930532839733823)",
    ("I2:5", 20000): "(0.05969026041820607, 0.022210959907938012)",
    ("I2:5", 70000): "(0.022529707315743944, 0.01187388358811597)",
    ("I2:5", 200000): "(-0.00942477796076938, 0.007024800681326966)",
    ("A2-wall", 1): "(-3.1415926535897927e-22, 3.1415926535897927e-22)",
    ("A2-wall", 999): "(3.459211130078851e-24, 9.943934912918314e-24)",
    ("A2-wall", 20000): "(-2.3876104167282426e-24, 2.2214328494385786e-24)",
    ("A2-wall", 70000): "(-2.692793703076965e-26, 1.1874188889555941e-24)",
    ("A2-wall", 200000): "(-3.832743037379547e-25, 7.024827065261273e-25)",
}


@pytest.mark.parametrize("label", list(_MC_BALLS))
def test_mc_reproduces_the_pinned_estimates(label):
    (family, rank), center, radius = _MC_BALLS[label]
    spec = make_spec(family, rank)
    for (case, samples), expected in _MC_PINNED.items():
        if case == label:
            for threads in (1, 2, 4):
                est = mc_pizza(spec, BallSpec(center, radius), samples, 7, threads=threads)
                assert repr((est.value, est.std_error)) == expected, (samples, threads)


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


def test_mc_refuses_fewer_than_one_thread():
    ball = BallSpec((0.25, 0.1, 0.03), 1.0)
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            mc_pizza(make_spec("D", 3), ball, 100, SEED, threads=threads)


def test_mc_refuses_a_ball_inside_the_tolerance_slab():
    # every draw of the first ball lies within 1e-12 of the wall a_1 = a_2,
    # every draw of the second within 1e-12 of one of the three walls
    # through the A_2 origin, though within none alone, so sampling would
    # never end: the calls run in a child process under a timeout, and the
    # first must be refused before it samples, the second once 20,000 draws
    # in a row were resampled
    code = ("from coxpizza.oracle import BallSpec, mc_pizza\n"
            "from coxpizza.rootsys import make_spec\n"
            "for ball in (BallSpec((0.1, 0.1, -0.2), 1e-13), BallSpec((0.0, 0.0, 0.0), 1.5e-12)):\n"
            "    try:\n"
            "        mc_pizza(make_spec('A', 2), ball, 10, 5)\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused: the ball lies within 1e-12 of a hyperplane: every draw would be resampled",
        "refused: 20000 draws in a row were resampled: the ball lies within 1e-12 of the hyperplanes"]
    # |<r, a>| + R just above the tolerance is sampled
    est = mc_pizza(make_spec("A", 2), BallSpec((0.1, 0.1, -0.2), 2e-12), 10, 5)
    assert est.samples == 10


# a ball of radius 1e6 centred within 1e-6 of the wall a_1 = a_2: the affine
# pairings' delta grows with the ball, to about 3.6e-9 here
_MC_FAR_BALL = (("A", 2), (0.5 + 5e-7, 0.5 - 5e-7, -1.0), 1e6)


def _mc_frame(label):
    """(spec, ball) of a _MC_BALLS entry, or of the far ball ("A2-far")."""
    (family, rank), center, radius = _MC_FAR_BALL if label == "A2-far" else _MC_BALLS[label]
    return make_spec(family, rank), BallSpec(center, radius)


def test_mc_block_and_chunk_sizes_keep_the_estimate(monkeypatch):
    # block size 1 works on one-column views of the pairings
    for label in ("A6", "D5", "A2-wall"):
        spec, ball = _mc_frame(label)
        for chunk in (oracle._CHUNK, 1000):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            estimates = set()
            for block in (1, 3, 2048):
                monkeypatch.setattr(oracle, "_BLOCK", block)
                estimates.add(mc_pizza(spec, ball, 2500, 7))
            assert len(estimates) == 1, (label, chunk)


def _mc_kernel_args(label):
    """(ball, dim, embed_t, roots, center) of a _mc_frame ball, in the
    arrays mc_pizza hands _mc_chunk."""
    import numpy as np

    spec, ball = _mc_frame(label)
    dim, embed = oracle._sampling_frame(spec)
    embed_t = None if embed is None else np.ascontiguousarray(embed.T)
    return ball, dim, embed_t, np.array(numeric_roots(spec)), np.array(ball.center)


@pytest.mark.parametrize("label", ["A2", "A6", "D5", "D7", "I2:5", "A2-wall", "A2-far"])
def test_mc_chunk_matches_the_loop_by_norms(label):
    # (sum of the chamber signs, draws) of single chunks, ending inside a
    # block, on one, inside a later block and on a whole chunk; at 40 seeds
    # the radius-1e-11 ball on a wall catches affine pairings that decide
    # near the wall themselves (seeds 2 and 33 then differ from the loop)
    import numpy as np

    ball, dim, embed_t, roots, center = _mc_kernel_args(label)
    affine = oracle._affine_pairings(roots, embed_t, center, ball.radius)
    for seed in range(40) if label == "A2-wall" else (7, 11, 12345):
        for ci, count in enumerate((1, 999, 2048, 5000, oracle._CHUNK)):
            args = (count, dim, ball.radius, center, embed_t, roots)
            kernel = oracle._mc_chunk(np.random.default_rng([seed, ci]), *args, *affine)
            loop = mc_chunk_by_norms(np.random.default_rng([seed, ci]), *args)
            assert kernel == loop, (seed, count)


@pytest.mark.parametrize("label", ["A2", "A6", "D5", "D7", "I2:5", "A2-wall", "A2-far"])
def test_affine_pairings_stay_within_delta_of_the_loops_lines(label):
    # the bound the kernel's near-wall recompute rests on, at 20,000 rows of
    # norm up to the radius; on the far ball the two differ by far more than
    # the 1e-12 tolerance, so a fixed delta would not hold there
    import numpy as np

    ball, dim, embed_t, roots, center = _mc_kernel_args(label)
    lines, offsets, delta = oracle._affine_pairings(roots, embed_t, center, ball.radius)
    rng = np.random.default_rng(SEED)
    rows = rng.standard_normal((20_000, dim))
    rows *= (ball.radius * rng.random(20_000) ** (1 / dim) / np.linalg.norm(rows, axis=1))[:, None]
    fused = lines @ rows.T + offsets[:, :1]
    loop = roots @ (center + (rows if embed_t is None else rows @ embed_t)).T
    gap = np.abs(fused - loop).max()
    assert gap <= delta
    if label == "A2-far":
        assert gap > 100 * WALL_TOL


def test_product_sign_is_the_parity_of_the_negative_factors():
    # 42 factors (the positive roots of D_7) small enough that most products
    # underflow to +-0: the sign bit of the product is still their parity
    import numpy as np

    rng = np.random.default_rng(SEED)
    factors = rng.choice([-1.0, 1.0], size=(42, 4000)) * 10.0 ** rng.uniform(-12, -4, (42, 4000))
    products = np.multiply.reduce(factors, axis=0)
    assert np.count_nonzero(products == 0.0) > 3000
    parity = np.add.reduce(np.signbit(factors), axis=0) % 2 == 1
    assert np.array_equal(np.signbit(products), parity)


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
                    symbolic += evaluate(z, list(center)) * 2.0 ** (-d / 2.0)
            symbolic *= prefactor
            scale = max(abs(direct), abs(symbolic), 1e-30)
            assert abs(direct - symbolic) <= 1e-9 * scale + 1e-18, (spec, center)


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
    """CenterSeries.value matching by matching, all in Fraction arithmetic."""
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


@pytest.mark.parametrize("family,rank", [("D", 5), ("A", 6)])
def test_sum2s_is_the_exact_fold_within_its_tail(family, rank):
    # near the center the signed sum cancels down to its degree-|Phi+| term,
    # far below its terms: a float sum of the matchings' series returns
    # rounding noise there, orders of magnitude above its tail bound at cap 61
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    prefactor = 2 ** (k / 2) * ball_volume(spec.rank - k)
    for center in random_interior_centers(spec, 3, SEED):
        value, tail = sum_over_2structures(spec, BallSpec(center, 1.0), 61)
        exact, _ = _reference_sign_fold(spec, center, 61)
        assert abs(value - float(exact) * prefactor) <= tail, center


def _reference_centers(spec):
    dim = spec.ambient_dim
    dyadic = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    decimal = tuple((0.1, -0.07, 0.13, -0.05, 0.02, 0.11, -0.09, 0.06, -0.03, 0.08, -0.12)[:dim])
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
        assert CenterSeries(spec, center).value(cap) == _reference_sign_fold(spec, center, cap)
    # grow the cap as the sign checker does, from the lowest block on, until
    # the band excludes zero; the early caps need escalating
    for escalations, cap in enumerate(range(k, k + 120, 6)):
        value, bound = CenterSeries(spec, center).value(cap)
        assert (value, bound) == _reference_sign_fold(spec, center, cap), cap
        if abs(value) > bound:
            break
    assert abs(value) > bound and escalations > 0


@pytest.mark.parametrize("family,rank,cap", [("A", 2, 9), ("A", 3, 12), ("D", 3, 12), ("D", 5, 22)])
def test_fold_at_matches_the_expanded_fold(family, rank, cap):
    # every degree k, k+2, .. <= cap, at an exact point off the type A
    # hyperplane and outside the unit ball: folds evaluates the polynomial
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    point = [Fraction(7 - 3 * i, 5 + i) for i in range(spec.ambient_dim)]
    values = CenterSeries(spec, point).folds(cap)
    assert sorted(values) == list(range(k, cap + 1, 2))
    for d, value in values.items():
        assert value == evaluate(z_poly(spec, d), point), (family, rank, d)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 6), ("A", 7), ("D", 3),
                                         ("D", 5), ("D", 7)])
def test_signed_sums_equal_the_matchings_loop(family, rank):
    # the Pfaffian against the signed loop over every matching, at a seeded
    # dyadic center and a seeded 32-bit integer point, from |Phi+| up
    spec = make_spec(family, rank)
    geometry = fold_parameters(spec)
    phi = spec.positive_root_count
    rng = random.Random(f"{family}{rank}")
    dyadic = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    integers = [rng.randrange(-2**31, 2**31) for _ in range(spec.ambient_dim)]
    for point in (dyadic, integers):
        exact = [Fraction(x) for x in point]
        matchings = [(mt.sign(matching), matching.edges, list(form_values(geometry, matching, exact)))
                     for matching in enumerate_matchings(geometry.ground)]
        forms, denominator = _edge_forms(geometry, exact)
        for cap in (phi, phi + 1, phi + 17, phi + 40):
            m_top = (cap - geometry.k) // 2
            signed, odd = _signed_sums(geometry, forms, m_top)
            expected = signed_sums_by_matchings(geometry, matchings, m_top)
            assert (signed, denominator, odd) == expected, (point, cap)


@pytest.mark.parametrize("family,rank", [("A", 6), ("D", 5), ("A", 7), ("D", 9), ("A", 10)])
def test_squared_radii_count_every_matching_once(family, rank):
    # the plan walked unsigned against the loop over every matching: odd
    # ground sets (A_6, D_5, D_9, A_10) with their added vertex and an even
    # one (A_7), at the dyadic, decimal and thirds-and-fifths centers
    spec = make_spec(family, rank)
    geometry = fold_parameters(spec)
    for kind, center in _reference_centers(spec).items():
        exact = [Fraction(x) for x in center]
        counts = _squared_radii(geometry.ground, _edge_forms(geometry, exact)[0])
        assert counts == squared_radii_by_matchings(geometry, exact), kind
        assert sum(counts.values()) == count_matchings(geometry.ground)


def test_fold_at_visits_no_matching(monkeypatch):
    # the fold, its tail bound, the 2-structure series and the sign check all
    # walk _pfaffian_plan; the oracle does not even import the enumeration
    spec = make_spec("A", 6)
    point = [Fraction(7 - 3 * i, 5 + i) for i in range(spec.ambient_dim)]
    expected = CenterSeries(spec, point).folds(31)
    centers = {family: random_interior_centers(make_spec(family, rank), 1, SEED, radius=0.3)[0]
               for family, rank in (("A", 6), ("D", 5))}

    def refuse(ground):
        raise AssertionError("the matchings were enumerated")
    monkeypatch.setattr(mt, "enumerate_matchings", refuse)
    assert not hasattr(oracle, "enumerate_matchings")
    assert CenterSeries(spec, point).folds(31) == expected
    CenterSeries(spec, centers["A"]).value(31)
    sum_over_2structures(spec, BallSpec(centers["A"], 1.0), 31)
    assert check_sign_D(5, [centers["D"]]).verdict == "consistent"


def test_fold_at_and_fold_mod_walk_one_plan(monkeypatch):
    # the memo's states and their order are written once, in _pfaffian_plan,
    # and the exact fold, the modular fold and the tail bound's radii walk it
    grounds = []

    def recording(ground):
        grounds.append(ground)
        return _pfaffian_plan(ground)
    monkeypatch.setattr(oracle, "_pfaffian_plan", recording)
    for family, rank in (("A", 6), ("D", 5)):
        spec = make_spec(family, rank)
        CenterSeries(spec, [Fraction(7 - 3 * i, 5 + i) for i in range(spec.ambient_dim)]).folds(31)
    assert grounds == [7, 5]
    fold_mod(make_spec("D", 5), (3, -1, 4, 1, -5), 14)
    assert grounds == [7, 5, 5]
    spec = make_spec("A", 6)
    CenterSeries(spec, random_interior_centers(spec, 1, SEED, radius=0.3)[0]).bound(31)
    assert grounds == [7, 5, 5, 7]


def test_walk_plan_keeps_each_state_until_its_last_reader():
    # a ring of counted values, each the number of matchings of its state's
    # vertex set: at 13 vertices (14 with the added one) the walk makes the
    # 609 states and holds at most 345 of them at once, the minors a state
    # reads included
    class Counted:
        made = alive = peak = 0

        def __init__(self, matchings):
            self.matchings = matchings
            Counted.made += 1
            Counted.alive += 1
            Counted.peak = max(Counted.peak, Counted.alive)

        def __del__(self):
            Counted.alive -= 1

    class Unit:  # the empty set's value, not counted among the states
        matchings = 1

    whole = _walk_plan(13, Unit(), lambda edge, minor: minor,
                       lambda plus, minus: Counted(sum(term.matchings for term in plus + minus)))
    assert whole.matchings == count_matchings(13) == 135135
    assert Counted.made == len(_pfaffian_plan(13)) == 609
    assert Counted.peak <= 345
    del whole
    assert Counted.alive == 0


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 6), ("D", 5)])
def test_exact_sign_fold_is_the_normalized_sum_of_fold_at(family, rank):
    # W = sum_m 2^-m Z_(2m+k) at the center, from the object's folds
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    center = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    value, _ = CenterSeries(spec, center).value(k + 12)
    folds = CenterSeries(spec, center).folds(k + 12)
    assert value == sum(Fraction(z, 1 << ((d - k) // 2)) for d, z in folds.items())


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 6), ("D", 5)])
def test_sign_fold_tails_is_the_fold_bound_without_folding(family, rank):
    # the sign checks choose their caps from it, and decide on the fold's own
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    center = random_interior_centers(spec, 1, SEED, radius=0.4, margin=0.01)[0]
    series = CenterSeries(spec, center)
    for cap in (k, k + 1, k + 8, spec.positive_root_count + 5):
        assert series.bound(cap) == CenterSeries(spec, center).value(cap)[1]


@pytest.mark.parametrize("cap,message", [
    (401, r"^degree_cap 401 above the largest admitted, 400$"),
    (3, r"^degree_cap below the lowest block degree$"),
    (24.0, r"^degree_cap 24\.0 is not an integer$"),
], ids=["above-largest", "below-k", "float"])
def test_sign_fold_tails_refuses_a_cap_as_the_fold_does(cap, message):
    # the public bound reads its cap through the fold's own check (k = 4 for D_5)
    spec = make_spec("D", 5)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    with pytest.raises(ValueError, match=message):
        CenterSeries(spec, center).value(cap)
    with pytest.raises(ValueError, match=message):
        CenterSeries(spec, center).bound(cap)


def test_fold_at_shares_the_exact_fold_checks():
    with pytest.raises(ValueError, match="^no matching fold for family I2$"):
        CenterSeries(make_spec("I2", 5), (1, 2)).folds(9)
    with pytest.raises(ValueError, match="center has dimension 4, expected 3"):
        CenterSeries(make_spec("D", 3), (1, 2, 3, 4)).folds(9)
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        CenterSeries(make_spec("D", 5), (1, 2, 3, 4, 5)).folds(3)


MOD_CELLS = [("D", 3), ("D", 5), ("D", 7), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6)]


@pytest.mark.parametrize("family,rank", MOD_CELLS, ids=[f"{f}{n}" for f, n in MOD_CELLS])
def test_fold_mod_is_fold_at_modulo_the_prime(family, rank):
    # two routes at seeded 32-bit integer points: the exact fold reduced
    # modulo 2^61 - 1, and the fold run on residues
    spec = make_spec(family, rank)
    k = fold_parameters(spec).k
    phi = spec.positive_root_count
    rng = random.Random(f"fold_mod {family}{rank}")
    for _ in range(2):
        point = [rng.randrange(-2**31, 2**31) for _ in range(spec.ambient_dim)]
        exact = CenterSeries(spec, point).folds(phi + 8)
        for d in (k, phi, phi + 2, phi + 8):
            reduced = exact[d].numerator * pow(exact[d].denominator, -1, MODULUS) % MODULUS
            assert fold_mod(spec, point, d) == reduced, (point, d)


def test_fold_mod_work_counts_the_memo_terms():
    # the closed form against the memo's own plan, times the slots
    for rank in range(3, 16):
        spec = make_spec("D", rank)
        plan = _pfaffian_plan(rank)
        terms = sum(len(plus) + len(minus) for _, plus, minus in plan)
        assert fold_mod_work(spec, 2 * rank + fold_parameters(spec).k) == terms * (rank + 1), rank


def test_fold_mod_refuses_what_it_cannot_evaluate():
    with pytest.raises(ValueError, match="no matching fold for family I2"):
        fold_mod(make_spec("I2", 5), (1, 2), 9)
    with pytest.raises(ValueError, match="center has dimension 4, expected 3"):
        fold_mod(make_spec("D", 3), (1, 2, 3, 4), 6)
    with pytest.raises(ValueError, match="degree 7: the fold vanishes below 2 and at the other parity"):
        fold_mod(make_spec("D", 3), (1, 2, 3), 7)
    with pytest.raises(TypeError):
        fold_mod(make_spec("D", 3), (1, Fraction(1, 2), 3), 6)
    with pytest.raises(ValueError, match=r"^degree 6\.0 is not an integer$"):
        fold_mod(make_spec("D", 3), (1, 2, 3), 6.0)
    with pytest.raises(ValueError, match=r"^degree 6\.0 is not an integer$"):
        fold_mod_work(make_spec("D", 3), 6.0)


def test_exact_routes_refuse_a_non_integer_degree():
    # before the fold: a float cap would reach range() or a power of the
    # denominator, each with its own unclear error
    spec = make_spec("D", 3)
    center = (0.25, 0.125, 0.0625)
    for route in (lambda spec, center, cap: CenterSeries(spec, center).value(cap),
                  lambda spec, center, cap: CenterSeries(spec, center).folds(cap)):
        with pytest.raises(ValueError, match=r"^degree_cap 21\.5 is not an integer$"):
            route(spec, center, 21.5)
    with pytest.raises(ValueError, match=r"^degree_cap 21\.5 is not an integer$"):
        sum_over_2structures(spec, BallSpec(center, 1.0), 21.5)
    with pytest.raises(ValueError, match=r"^degree_cap 5\.5 is not an integer$"):
        a1k_pizza_series(3, 2, (0.25, 0.125), 5.5)


# outside the regime (A_n with n = 0, 1 mod 4, D_n of even rank) every Taylor block of the fold
# has degree at most n, below |Phi+|, where the alternating fold vanishes: the pizza quantity is 0
OUTSIDE_REGIME = {
    "D4": ("D", 4, (0.21, -0.13, 0.07, 0.03)),
    "D6": ("D", 6, (0.21, -0.13, 0.07, 0.03, 0.01, 0.02)),
    "D8": ("D", 8, (0.21, -0.13, 0.07, 0.03, 0.01, 0.02, -0.11, 0.05)),
    "A4": ("A", 4, (0.21, -0.13, 0.07, 0.03, -0.18)),
    "A5": ("A", 5, (0.21, -0.13, 0.07, 0.03, -0.18, 0.0)),
}


@pytest.mark.parametrize("family,rank,center", OUTSIDE_REGIME.values(), ids=OUTSIDE_REGIME.keys())
def test_exact_routes_are_zero_outside_the_regime(family, rank, center):
    spec = make_spec(family, rank)
    assert CenterSeries(spec, center).value(61) == (0, 0)
    assert sum_over_2structures(spec, BallSpec(center, 1.0), 61) == (0.0, 0.0)
    estimate = mc_pizza(spec, BallSpec(center, 1.0), 20_000, SEED)
    assert abs(estimate.value) <= 3 * estimate.std_error


def test_fold_at_is_zero_on_even_rank_d():
    # D_4's matchings carry k = 4 forms each: c_m = 0 past m = 0, and Z_4 alternates in the
    # squares at degree 4, below the degree 12 of their Vandermonde, so it vanishes
    spec = make_spec("D", 4)
    assert fold_parameters(spec).k == 4
    values = CenterSeries(spec, (3, -7, 11, 2)).folds(40)
    assert list(values) == list(range(4, 41, 2)) and not any(values.values())


def test_sum2s_refuses_type_a_center_off_the_hyperplane():
    with pytest.raises(ValueError, match=r"type A centers must satisfy sum\(a\) = 0"):
        sum_over_2structures(make_spec("A", 2), BallSpec((0.1, 0.2, 0.3), 1.0), 21)


def test_exact_sign_fold_outside_unit_ball():
    for spec, center in ((make_spec("D", 3), (0.9, 0.5, 0.25)),
                         (make_spec("A", 2), (0.9, -0.6, -0.3))):
        for fold in (lambda spec, center, cap: CenterSeries(spec, center).value(cap),
                     _reference_sign_fold):
            with pytest.raises(DivergentRegion, match="strictly inside the unit ball"):
                fold(spec, center, 21)


def test_exact_sign_fold_rejects_growing_coefficients():
    # A_14: (n-k)/2 = 7/2, so |c_2/c_1| = 5/4 > 1; caps 7 and 8 stop at m_top = 0.
    # Raised before the matchings' radii are counted, so also for a center
    # outside the unit ball; at cap 9 that center is refused by its radii.
    spec = make_spec("A", 14)
    inside = tuple(Fraction(i - 7, 256) for i in range(15))
    outside = (Fraction(3, 4), Fraction(-3, 4)) + (Fraction(0),) * 13
    for center in (inside, outside):
        with pytest.raises(ValueError, match="cap too small: coefficients still growing at m=2"):
            CenterSeries(spec, center).value(8)
    with pytest.raises(DivergentRegion):
        CenterSeries(spec, outside).value(9)


def test_exact_routes_refuse_a_center_outside_the_unit_ball_before_any_walk(monkeypatch):
    # |a|^2 >= 1 while every matching's squared radius s_M stays below 1, so the radii
    # alone admit these centers: D_3 at |a|^2 = 1.0445 (largest s_M 0.7081), A_2 at
    # |a|^2 = 1.095 (largest s_M 0.91125) and D_3 at |a|^2 = 1 exactly (largest s_M 8/9);
    # the folds still evaluate the polynomial there
    d3, a2 = make_spec("D", 3), make_spec("A", 2)
    centers = [(d3, (0.6, 0.59, 0.58)), (a2, (Fraction(1, 2), Fraction(7, 20), Fraction(-17, 20))),
               (d3, (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)))]
    for spec, center in centers:
        assert CenterSeries(spec, center).folds(21)

    def walk(ground):
        raise AssertionError("the plan was walked")
    monkeypatch.setattr(oracle, "_pfaffian_plan", walk)
    message = "^exact fold needs the center strictly inside the unit ball$"
    for spec, center in centers:
        with pytest.raises(DivergentRegion, match=message):
            CenterSeries(spec, center).value(21)
        with pytest.raises(DivergentRegion, match=message):
            sum_over_2structures(spec, BallSpec(tuple(2 * x for x in center), 2.0), 21)
    for check, (spec, center) in zip((check_sign_D, check_sign_A), centers):
        with pytest.raises(DivergentRegion, match=message):
            check(spec.rank, [center])


def test_sum2s_refuses_in_its_documented_order_before_any_walk(monkeypatch):
    # each input carries two faults, and the earlier one in sum_over_2structures' order
    # (family, dimension, cap, sum-zero hyperplane, radius, then the bound's) is refused
    def walk(ground):
        raise AssertionError("the plan was walked")
    monkeypatch.setattr(oracle, "_pfaffian_plan", walk)
    a2, d3 = make_spec("A", 2), make_spec("D", 3)
    cases = [
        (make_spec("I2", 5), BallSpec((0.1, 0.2, 0.3), 1.0), 21,
         "^no matching fold for family I2$"),
        (d3, BallSpec((0.1, 0.2, 0.3, 0.4), 1.0), 1, "^center has dimension 4, expected 3$"),
        (a2, BallSpec((0.1, 0.2, 0.3), 1.0), 0, "^degree_cap below the lowest block degree$"),
        (a2, BallSpec((0.1, 0.2, 0.3), 1e-300), 21, r"^type A centers must satisfy sum\(a\) = 0$"),
        (d3, BallSpec((2.0, 2.0, 2.0), 1e-200), 21,
         "^radius 1e-200: the volume of its ball in dimension 3 is not a positive finite float$"),
    ]
    for spec, ball, cap, message in cases:
        with pytest.raises(ValueError, match=message):
            sum_over_2structures(spec, ball, cap)


def test_tail_bound_refuses_past_its_matching_cap_before_walking(monkeypatch):
    # 17!! = 34,459,425 matchings (A_16, A_17, D_17) are refused before the
    # plan is walked; the radii of 15!! = 2,027,025 (A_14, A_15, D_15) are counted
    class Walked(Exception):
        pass

    def walk(ground):
        raise Walked
    monkeypatch.setattr(oracle, "_pfaffian_plan", walk)
    for family, rank, refused in (("A", 16, True), ("A", 17, True), ("D", 17, True),
                                  ("A", 14, False), ("A", 15, False), ("D", 15, False)):
        spec = make_spec(family, rank)
        center = (tuple(Fraction(2 * i - rank, 512) for i in range(rank + 1)) if family == "A"
                  else tuple(Fraction(i + 1, 256) for i in range(rank)))
        if refused:
            with pytest.raises(ValueError, match="^34459425 matchings exceed the tail bound's "
                                                 "cap of 10000000$"):
                CenterSeries(spec, center).value(spec.positive_root_count)
        else:
            with pytest.raises(Walked):
                CenterSeries(spec, center).value(spec.positive_root_count)


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
    # the float loop on n < 40, k <= n, m_top < 40; the exact loop on
    # m_top < 12 (it is slow, and for n < 40 growth stops by m_top = 8)
    for n in range(1, 40):
        for k in range(1, n + 1):
            for m_top in range(40):
                c_next = c_coefficient(n, k, m_top + 1)
                expected = _reference_growth(float(c_next), 0.5 * (n - k), m_top)
                assert _guard_growth(n, k, m_top) == expected, (n, k, m_top)
                if m_top < 12:
                    assert _reference_growth(c_next, Fraction(n - k, 2), m_top) == expected


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
        CenterSeries(make_spec(family, rank), center).value(41)


@pytest.mark.parametrize("family,rank,cap", [("D", 5, 2), ("D", 5, 3), ("A", 6, 2)])
def test_degree_cap_below_block_degree_rejected(family, rank, cap):
    # the lowest nonzero block has degree k (4 for D_5, 3 for A_6)
    spec = make_spec(family, rank)
    center = (0.0625,) * spec.ambient_dim
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        CenterSeries(spec, center).value(cap)
    with pytest.raises(ValueError, match="degree_cap below the lowest block degree"):
        sum_over_2structures(spec, BallSpec(center, 1.0), cap)


def test_exact_sign_fold_sign_matches_leading_term():
    # near the origin the sign is the sign of (lead quotient) x (Jacobian)
    spec = make_spec("D", 5)
    lead = coefficient(quotient(spec, 20), (0,) * 5)
    vand = vandermonde(5, squared=True)
    for center in random_interior_centers(spec, 3, SEED, radius=0.3):
        value, bound = CenterSeries(spec, center).value(auto_degree_cap(5, 4, 0.5, 1e-12))
        if abs(value) <= bound:
            value, bound = CenterSeries(spec, center).value(240)
        assert abs(value) > bound
        jac = evaluate(vand, list(center))
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


@pytest.mark.parametrize("family,rank,largest", [("A", 6, 0.4010), ("A", 10, 0.4026),
                                                  ("D", 9, 0.4017)])
def test_centers_reach_past_the_radius_only_by_rounding(family, rank, largest):
    # each of the g coordinates rounds by at most 1/512, and the type A sum-zero
    # correction moves the last one by at most g/512 more
    spec = make_spec(family, rank)
    g = spec.ambient_dim
    reach = 0.4 + (math.sqrt(g) + (g if family == "A" else 0)) / 512
    norms = [math.sqrt(sum(x * x for x in c))
             for c in random_interior_centers(spec, 300, 7, radius=0.4, margin=0.0)]
    assert round(max(norms), 4) == largest and 0.4 < max(norms) <= reach


def test_centers_generator_gives_up_when_no_draw_meets_the_margin():
    # at the defaults no D_7 draw in practice keeps every pairing >= 0.03
    with pytest.raises(ValueError, match=r"D:7.*radius 0\.4.*margin 0\.03"):
        random_interior_centers(make_spec("D", 7), 3, SEED)


def test_centers_generator_rejects_a_negative_count():
    spec = make_spec("A", 3)
    assert random_interior_centers(spec, 0, SEED) == []
    with pytest.raises(ValueError, match="count must be non-negative, got -3"):
        random_interior_centers(spec, -3, SEED)


def test_seeded_routes_refuse_a_negative_seed():
    spec = make_spec("A", 2)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        mc_pizza(spec, BallSpec((0.2, -0.1, -0.1), 1.0), 3, -1)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
        random_interior_centers(spec, 1, -5)
