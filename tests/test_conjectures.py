import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from coxpizza import conjectures, oracle
from coxpizza.conjectures import (ConjectureReport, ReconstructionMismatch, RewriteFailed,
                                  _determinant_mod, _t_block_basis, _u_v_basis, check_lemma51,
                                  check_sign_A, check_sign_D, check_t_positivity,
                                  check_y_negativity, schur_reconstruct)
from coxpizza.matchings import c_coefficient, fold_parameters
from coxpizza.oracle import McEstimate, random_interior_centers
from coxpizza.polyring import NonDivisible, Poly, exact_divide_linear, partitions
from coxpizza.rootsys import OnHyperplane, make_spec
from coxpizza.taylor import (ParityRegimeError, ResourceCapExceeded, _edge_table,
                             _require_symbolic_regime, dominant_coefficients)
import reference
from reference import (alternant, compose_block, evaluate, lemma51_by_fold, rewrite_even_symmetric,
                       schur_lambda_coefficients, signed_estimate_fixed_step,
                       signed_estimate_linear_scan, t_poly)

SEED = 4711


def test_lemma51_audits_pass():
    for n, d in ((3, 6), (3, 8), (5, 20)):
        report = check_lemma51(n, d)
        assert report.verdict == "consistent"
        assert report.witnesses == []
        assert report.parameters["monomials"] > 0


# past rank 5 the monomial loop over the expanded fold takes seconds (D_7) or
# is refused (D_9 and up); at d = n(n-1) only c_() is nonzero: n! monomials
LEMMA51_FRONTIER = [(7, 42, 5040), (7, 46, 10080), (9, 72, 362880), (11, 110, 39916800),
                    (13, 156, 6227020800)]


@pytest.mark.parametrize("n,d,monomials", LEMMA51_FRONTIER,
                         ids=["D7_d42", "D7_d46", "D9_d72", "D11_d110", "D13_d156"])
def test_lemma51_past_rank_five(n, d, monomials):
    report = check_lemma51(n, d)
    assert report.verdict == "consistent"
    assert report.witnesses == []
    assert report.parameters["monomials"] == monomials


def _json_without_runtime(report: ConjectureReport) -> dict:
    return {k: v for k, v in report.to_json_dict().items() if k != "runtime_ms"}


LEMMA51_CELLS = [(3, d) for d in range(6, 31, 2)] + [(5, d) for d in range(20, 35, 2)]


@pytest.mark.parametrize("n,d", LEMMA51_CELLS, ids=[f"D{n}_d{d}" for n, d in LEMMA51_CELLS])
def test_lemma51_matches_the_monomial_loop(n, d):
    # the n! rearrangements per dominant coefficient are the expanded fold's monomials
    assert _json_without_runtime(check_lemma51(n, d)) == _json_without_runtime(lemma51_by_fold(n, d))


def _vanishing_degree_message(n, d):
    # below n(n-1) the fold is zero at either parity; above it only at the other parity
    base = n * (n - 1)
    if d < base:
        return f"^degree {d} below the lowest nonzero degree {base}$"
    return rf"^degree {d} has the wrong parity: the fold can be nonzero only at degrees {base}, " \
           rf"{base + 2}, \.\.\.$"


@pytest.mark.parametrize("n,d", [(3, 7), (3, 4), (5, 19), (5, 10), (5, 0), (5, 21), (5, 35)])
def test_lemma51_refuses_degrees_where_the_fold_vanishes(n, d):
    # nothing to audit, and the refusal names which of the two conditions failed
    with pytest.raises(ValueError, match=_vanishing_degree_message(n, d)):
        check_lemma51(n, d)


@pytest.mark.parametrize("n,d", [(3, 7), (5, 19), (5, 21)])
def test_schur_refuses_degrees_where_the_fold_vanishes(n, d):
    with pytest.raises(ValueError, match=_vanishing_degree_message(n, d)):
        schur_reconstruct(n, d)


@pytest.mark.parametrize("check", [check_lemma51, schur_reconstruct])
def test_type_d_audits_refuse_even_ranks_before_any_estimate(check):
    with pytest.raises(ParityRegimeError, match="^type D rank 4: even rank is outside the expansion"):
        check(4, 12)


@pytest.mark.parametrize("check,args", [
    (check_y_negativity, (5, 34.0)), (check_t_positivity, (20.0,)),
    (check_lemma51, (5, 22.0)), (schur_reconstruct, (5, 22.0)),
    (check_y_negativity, (5, 5.5)), (check_t_positivity, (5.5,)),
], ids=["y-neg", "t-pos", "lemma51", "schur", "y-neg-below-first", "t-pos-below-first"])
def test_exact_audits_refuse_a_non_integer_degree(check, args):
    # the fold geometry's degree check, before any coefficient or table
    with pytest.raises(ValueError, match=rf"^degree {args[-1]} is not an integer$"):
        check(*args)


def test_y_negativity_small_ranges():
    report = check_y_negativity(3, 12)
    assert report.verdict == "consistent"
    assert report.parameters["degrees"] == [6, 8, 10, 12]
    report5 = check_y_negativity(5, 20)
    assert report5.verdict == "consistent"


def test_y_negativity_rank_seven():
    report = check_y_negativity(7, 50)
    assert report.verdict == "consistent"
    assert report.parameters["degrees"] == [42, 44, 46, 48, 50]


@pytest.mark.parametrize("n,d_max", [(9, 84), (11, 118)])
def test_y_negativity_past_rank_seven(n, d_max):
    report = check_y_negativity(n, d_max)
    assert report.verdict == "consistent"
    assert report.parameters["degrees"] == list(range(n * (n - 1), d_max + 1, 2))


@pytest.mark.parametrize("n,d_max,top", [(3, 738, 738), (5, 400, 400), (7, 201, 200)])
def test_y_negativity_refuses_at_its_largest_degree_before_any_other(monkeypatch, n, d_max, top):
    # the work estimate does not decrease with the degree: the largest degree
    # is computed first and kept, so a refused range makes exactly one call
    calls = []
    real = conjectures.dominant_coefficients

    def record(spec, d):
        calls.append(d)
        return real(spec, d)
    monkeypatch.setattr(conjectures, "dominant_coefficients", record)
    with pytest.raises(ResourceCapExceeded, match=f"^degree {top}: about .* exceed the cap"):
        check_y_negativity(n, d_max)
    assert calls == [top]
    calls.clear()
    assert check_y_negativity(5, 27).parameters["degrees"] == [20, 22, 24, 26]
    assert calls == [26, 20, 22, 24]


def test_y_negativity_refuses_a_huge_range_before_listing_its_degrees():
    # a list of the 10^6 degrees up to 2*10^6 would take tens of MB before the refusal
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded, match="^degree 2000000: about .* exceed the cap"):
            check_y_negativity(5, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_y_negativity_rejects_even_rank():
    # the type D regime refusal that check schur and check lemma51 give too
    with pytest.raises(ParityRegimeError, match="type D rank 4: even rank is outside"):
        check_y_negativity(4, 16)


# The D_3 lemma of check_y_negativity's docstring, step by step on the code's own objects:
# the minus/plus edge table P_q (taylor._edge_table, degree D = 2q + 2) and c_m.

def _pair_table(q):
    """{e: p_e}, the coefficients of x^e y^(D-e) in P_q, as exact fractions."""
    table, scalar = _edge_table(True, q)
    return {e: Fraction(c, scalar) for (e, _), c in table.items()}


def test_d3_lemma_pair_table_steps():
    for q in range(60):
        degree, p = 2 * q + 2, _pair_table(q)
        assert all(e % 2 == 0 for e in p)
        for e in range(2, degree + 1, 2):
            # e(e-1) p_e = (D-e+2)(D-e+1) p_(e-2) + last, and the last term is positive
            last = e * (e - 1) * p.get(e, 0) - (degree - e + 2) * (degree - e + 1) * p.get(e - 2, 0)
            assert last == Fraction(4 * 2**q * math.comb(q, e // 2 - 1), math.factorial(q)) > 0
        for e in range(0, degree + 1, 2):
            assert p.get(degree - e, 0) == -p.get(e, 0)  # P_q is odd in u = x - y
            if 2 * e > degree:
                assert p[e] > 0  # induction up from the middle


def test_d3_lemma_scale_is_negative():
    # (n - k)/2 = 1/2 for D_3, and c_m = (-1)^m C(1/2, m) < 0 for every m >= 1
    assert fold_parameters(make_spec("D", 3)).k == 2
    assert all(c_coefficient(3, 2, m) < 0 for m in range(1, 201))


@pytest.mark.parametrize("d", [6, 8, 20, 40, 80])
def test_d3_coefficients_are_one_table_entry_times_one_negative_factor(d):
    # c_lambda = c_m m! / 2^s * p_e, e = 2 lambda_1 + 4, at m = q = (d - 2)/2: no lambda has
    # three parts, and e > D/2, so every c_lambda is negative
    geometry = fold_parameters(make_spec("D", 3))
    m, shift = geometry.half_degree(d), geometry.schur_shift(d)
    coeffs, p = dominant_coefficients(make_spec("D", 3), d), _pair_table(m)
    factor = c_coefficient(3, 2, m) * math.factorial(m) / 2**shift
    lams = list(partitions(shift, 2))
    assert factor < 0 and set(coeffs) <= set(lams)
    for lam in lams:
        first, second = (*lam, 0, 0)[:2]
        e = 2 * first + 4
        assert (e, 2 * second + 2) in _edge_table(True, m)[0] and 2 * e > 2 * m + 2
        assert coeffs[lam] == factor * p[e] < 0


def _a3_of_d3(a):
    """phi(a), the isometry onto A_3's hyperplane that maps D_3's roots to A_3's."""
    x1, x2, x3 = a
    return ((x1 + x2 + x3) / 2, (x1 - x2 - x3) / 2, (-x1 + x2 - x3) / 2, (-x1 - x2 + x3) / 2)


def test_a3_and_d3_folds_agree_at_corresponding_centers():
    for center in random_interior_centers(make_spec("D", 3), 10, 5):
        d3 = oracle.CenterSeries(make_spec("D", 3), center)
        a3 = oracle.CenterSeries(make_spec("A", 3), _a3_of_d3(center))
        assert d3.folds(60) == a3.folds(60)
        assert d3.value(60) == a3.value(60)


def test_schur_reconstruction_d3():
    report = schur_reconstruct(3, 6)
    assert report.verdict == "consistent"
    assert report.parameters["lambda_coefficients"] == {"[]": "-1/6"}
    report8 = schur_reconstruct(3, 8)
    assert report8.verdict == "consistent"
    assert report8.parameters["lambda_coefficients"] == {"[1]": "-1/10"}


@pytest.mark.parametrize("n,d", [(13, 156), pytest.param(15, 210, marks=pytest.mark.extended)],
                         ids=["D13_d156", "D15_d210"])
def test_schur_reconstruction_past_rank_eleven(n, d):
    # at d = n(n-1) the fold is c_() times the Vandermonde in the squares
    report = schur_reconstruct(n, d)
    assert report.verdict == "consistent"
    assert list(report.parameters["lambda_coefficients"]) == ["[]"]


def test_schur_reconstruction_rejects_low_degree():
    with pytest.raises(ValueError):
        schur_reconstruct(3, 4)


SCHUR_CELLS = [(3, d) for d in range(6, 21, 2)] + [(5, d) for d in range(20, 33, 2)]


@pytest.mark.parametrize("n,d", SCHUR_CELLS, ids=[f"D{n}_d{d}" for n, d in SCHUR_CELLS])
def test_schur_reconstruction_matches_the_expanded_route(n, d):
    # the point identity reports the c_lambda whose alternants rebuild the
    # expanded fold monomial by monomial
    report = schur_reconstruct(n, d)
    assert report.verdict == "consistent"
    assert report.parameters["lambda_coefficients"] == schur_lambda_coefficients(n, d)


def _patch_dominant_coefficients(monkeypatch, change):
    real = conjectures.dominant_coefficients

    def patched(spec, d):
        coeffs = dict(real(spec, d))
        change(coeffs)
        return coeffs

    monkeypatch.setattr(conjectures, "dominant_coefficients", patched)


@pytest.mark.parametrize("n,d", [(3, 12), (5, 24), (5, 30)])
def test_schur_reconstruction_catches_a_coefficient_off_by_one_unit(monkeypatch, n, d):
    def nudge(coeffs):
        lam, c = next(iter(coeffs.items()))
        coeffs[lam] = c + Fraction(1, c.denominator)

    _patch_dominant_coefficients(monkeypatch, nudge)
    with pytest.raises(ReconstructionMismatch, match="does not match the fold"):
        schur_reconstruct(n, d)


def test_schur_reconstruction_catches_a_seventh_on_one_coefficient(monkeypatch):
    def nudge(coeffs):
        lam = next(iter(coeffs))
        coeffs[lam] += Fraction(1, 7)

    _patch_dominant_coefficients(monkeypatch, nudge)
    with pytest.raises(ReconstructionMismatch, match="^rank 7 degree 46: alternant reconstruction "
                                                     "does not match the fold"):
        schur_reconstruct(7, 46)


def test_a_denominator_divisible_by_the_modulus_is_refused(monkeypatch):
    # the right side is reduced modulo p = 2^61 - 1 over one common denominator
    def plant(coeffs):
        lam = next(iter(coeffs))
        coeffs[lam] += Fraction(1, 3 * oracle.MODULUS)

    _patch_dominant_coefficients(monkeypatch, plant)
    with pytest.raises(ReconstructionMismatch, match=r"^rank 5 degree 24: a c_lambda denominator "
                                                     r"is divisible by 2\^61 - 1"):
        schur_reconstruct(5, 24)


def test_sign_check_refuses_a_negative_seed_before_any_fold(monkeypatch):
    def fail(*args):
        raise AssertionError("folded before the refusal")

    monkeypatch.setattr(oracle.CenterSeries, "value", fail)
    monkeypatch.setattr(oracle.CenterSeries, "bound", fail)
    for check, rank, center in ((check_sign_A, 2, (0.2, -0.1, -0.1)),
                                (check_sign_D, 3, (0.25, 0.1, 0.03))):
        for samples in (0, 10):
            with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
                check(rank, [center], samples, -5)


def test_a_fold_over_the_work_cap_is_refused_before_any_fold(monkeypatch):
    def fail(*args):
        raise AssertionError("computed before the refusal")

    monkeypatch.setattr(conjectures, "fold_mod", fail)
    monkeypatch.setattr(conjectures, "dominant_coefficients", fail)
    for check in (schur_reconstruct, check_lemma51):
        with pytest.raises(ResourceCapExceeded, match="^rank 19 degree 342: about 14615395 steps"):
            check(19, 342)


def test_determinant_mod_equals_the_exact_determinant():
    # seeded matrices with many zeros, so pivots must be searched for; a
    # repeated row makes some of them singular
    rng = random.Random(SEED)
    for size in range(1, 7):
        for _ in range(30):
            rows = [[rng.choice((0, 0, rng.randrange(-9, 10), rng.randrange(oracle.MODULUS)))
                     for _ in range(size)] for _ in range(size)]
            if size > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])
            exact = sum(math.prod(rows[i][j] for i, j in enumerate(perm))
                        * (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
                        for perm in itertools.permutations(range(size)))
            residues = [[x % oracle.MODULUS for x in row] for row in rows]
            assert _determinant_mod(residues) == exact % oracle.MODULUS, rows


def _mod(value: Fraction) -> int:
    return value.numerator * pow(value.denominator, -1, oracle.MODULUS) % oracle.MODULUS


def _plant_full_partition(monkeypatch, n, d):
    """Add c_lambda = -1/7 on a lambda with n parts to the dominant
    coefficients and, as 2^shift c_lambda a_(2(lambda+delta)), to the fold
    values modulo 2^61 - 1, so the alternant identity still holds; returns
    the planted term."""
    shift = (d - n * (n - 1)) // 2
    lam = (shift - n + 1,) + (1,) * (n - 1)
    c = Fraction(-1, 7)
    exponents = [2 * (part + n - 1 - i) for i, part in enumerate(lam)]
    planted = alternant(exponents, n).scale(c * (1 << shift))
    _patch_dominant_coefficients(monkeypatch, lambda coeffs: coeffs.__setitem__(lam, c))
    real = conjectures.fold_mod
    monkeypatch.setattr(conjectures, "fold_mod", lambda spec, point, degree: (
        real(spec, point, degree) + _mod(evaluate(planted, point))) % oracle.MODULUS)
    return planted


@pytest.mark.parametrize("n,d", [(3, 12), (5, 30)])
def test_schur_reconstruction_catches_a_coefficient_with_n_parts(monkeypatch, n, d):
    # Lemma 5.1(b): c_lambda vanishes for every lambda with n parts, also when
    # the fold values agree with it
    _plant_full_partition(monkeypatch, n, d)
    with pytest.raises(ReconstructionMismatch, match=f"partitions with {n} parts"):
        schur_reconstruct(n, d)


@pytest.mark.parametrize("n,d", [(3, 12), (5, 30)])
def test_lemma51_lists_the_rearrangements_of_a_coefficient_with_n_parts(monkeypatch, n, d):
    planted = _plant_full_partition(monkeypatch, n, d)
    real_z_poly = reference.z_poly
    monkeypatch.setattr(reference, "z_poly", lambda spec, deg: real_z_poly(spec, deg) + planted)
    report = check_lemma51(n, d)
    assert report.verdict == "violated"
    assert len(report.witnesses) == len(planted.terms)
    assert {w["claim"] for w in report.witnesses} == {"no_zero_exponent"}
    assert _json_without_runtime(report) == _json_without_runtime(lemma51_by_fold(n, d))


def test_lemma51_raises_when_the_fold_disagrees(monkeypatch):
    # a fold off the alternant identity is an internal contradiction, not a witness
    real = conjectures.fold_mod
    monkeypatch.setattr(conjectures, "fold_mod", lambda spec, point, degree: (
        real(spec, point, degree) + 1) % oracle.MODULUS)
    with pytest.raises(ReconstructionMismatch, match="does not match the fold"):
        check_lemma51(5, 24)


Y_NEG_PLANTED = [
    {"degree": 10, "partition": [2], "monomial": [8, 2], "coefficient": "13/224",
     "kind": "positive"},
    {"degree": 10, "partition": [1, 1], "monomial": [6, 4], "coefficient": "0",
     "kind": "zero (non-strict violation)"},
]
T_POS_PLANTED = [{"degree": 8, "u_power": 1, "v_power": 1, "coefficient": "-1/140"}]


def _plant_y_neg(monkeypatch):
    # D_3 at degree 10 has c_(2) = -13/224 and c_(1,1) = -1/16: flip the first, drop the second
    def plant(coeffs):
        if (1, 1) in coeffs:
            coeffs[(2,)] = -coeffs[(2,)]
            del coeffs[(1, 1)]

    _patch_dominant_coefficients(monkeypatch, plant)


def _plant_t_pos(monkeypatch):
    # the degree-8 block is 3/1120 u^3 + 1/140 u v: flip the u v coefficient
    real = conjectures._t_block_basis

    def planted(*args):
        basis = dict(real(*args))
        if args[-1] == 8:
            basis[(1, 1)] = -basis[(1, 1)]
        return basis

    monkeypatch.setattr(conjectures, "_t_block_basis", planted)


@pytest.mark.parametrize("plant,check,args,witnesses", [
    (_plant_y_neg, check_y_negativity, (3, 10), Y_NEG_PLANTED),
    (_plant_t_pos, check_t_positivity, (10,), T_POS_PLANTED),
], ids=["y-neg", "t-pos"])
def test_exact_audits_report_a_planted_violation(monkeypatch, plant, check, args, witnesses):
    # a positive and a zero c_lambda, and a negative block coefficient, are witnesses with
    # their kind and powers, and make the report violated
    plant(monkeypatch)
    report = check(*args)
    assert report.verdict == "violated"
    assert report.witnesses == witnesses
    assert json.loads(json.dumps(report.to_json_dict()))["witnesses"] == witnesses


@pytest.mark.parametrize("plant,argv,witnesses", [
    (_plant_y_neg, ["y-neg", "--rank", "3", "--max-degree", "10"], Y_NEG_PLANTED),
    (_plant_t_pos, ["t-pos", "--max-degree", "10"], T_POS_PLANTED),
], ids=["y-neg", "t-pos"])
def test_a_planted_violation_exits_by_mode(monkeypatch, capsys, plant, argv, witnesses):
    # through the command: exit 1 under --mode test, 3 under --mode explore, and the
    # witnesses written one a line
    from coxpizza.cli import main

    plant(monkeypatch)
    conjecture_id = "yNeg" if argv[0] == "y-neg" else "tPos"
    expected = "".join([f"{conjecture_id}: violated\n"]
                       + [f"  witness: {json.dumps(w)}\n" for w in witnesses])
    for mode, code in (("test", 1), ("explore", 3)):
        assert main(["check", *argv, "--mode", mode]) == code
        assert capsys.readouterr() == (expected, "")


def test_t_positivity_leading_cases():
    report = check_t_positivity(16)
    assert report.verdict == "consistent"
    assert report.parameters["degrees"] == [6, 8, 10, 12, 14, 16]


def test_t_block_basis_matches_the_composed_block():
    # the reference route: compose T(3, 2) with (x+y, x-y), normalize to unit
    # forms, negate, divide by x-y and x+y, rewrite in u = x^2+y^2, v = x^2 y^2
    x_plus_y, x_minus_y = Poly.linear_form(2, (1, 1)), Poly.linear_form(2, (1, -1))
    spec = make_spec("D", 3)
    geometry = oracle.fold_parameters(spec)
    for d in range(6, 41, 2):
        composed = compose_block(t_poly(3, 2, d), [x_plus_y, x_minus_y])
        negated = -composed.scale(Fraction(1, 1 << (d // 2)))
        quot = exact_divide_linear(exact_divide_linear(negated, x_minus_y), x_plus_y)
        assert _t_block_basis(spec, geometry, d) == rewrite_even_symmetric(quot), d


# homogeneous blocks as their coefficients on x^e y^(degree-e), by e
UV_BLOCKS = {
    "u2+v": [-1, 0, -2, 0, 2, 0, 1],  # (x^2-y^2) (x^4 + 3x^2y^2 + y^4)
    "u": [-1, 0, 0, 0, 1],  # x^4 - y^4
    "u3-2uv": [-1, 0, 0, 0, 0, 0, 0, 0, 1],  # x^8 - y^8
    "const": [-3, 0, 3],
    "zero": [0, 0, 0, 0, 0],
    "remainder": [1, 0, 1],
    "odd-exponent": [0, -1, 0, 1, 0],  # x y (x^2 - y^2)
    "odd-degree": [0, -1, 0, 1],  # x (x^2 - y^2)
    "asymmetric": [0, 0, -1, 0, 1],  # x^2 (x^2 - y^2)
}


@pytest.mark.parametrize("name", list(UV_BLOCKS))
def test_u_v_basis_matches_the_reference_rewrite(name):
    # the same coefficients, and the same errors, as dividing by x-y and
    # x+y and rewriting the quotient by the reference route
    coeffs = UV_BLOCKS[name]
    degree = len(coeffs) - 1
    block = Poly(2, {(e, degree - e): Fraction(c) for e, c in enumerate(coeffs)})
    try:
        quot = exact_divide_linear(exact_divide_linear(block, Poly.linear_form(2, (1, -1))),
                                   Poly.linear_form(2, (1, 1)))
        expected = rewrite_even_symmetric(quot)
    except (NonDivisible, RewriteFailed) as exc:
        with pytest.raises(type(exc)):
            _u_v_basis(coeffs)
        return
    assert _u_v_basis(coeffs) == expected


def test_rewrite_even_symmetric_basis():
    # (x^2+y^2)^2 + 3 x^2 y^2 -> u^2 + 3v
    u2 = Poly(2, {(4, 0): Fraction(1), (2, 2): Fraction(2), (0, 4): Fraction(1)})
    p = u2 + Poly(2, {(2, 2): Fraction(3)})
    coeffs = rewrite_even_symmetric(p)
    assert coeffs == {(2, 0): Fraction(1), (0, 1): Fraction(3)}


def test_rewrite_rejects_odd_exponents():
    with pytest.raises(RewriteFailed):
        rewrite_even_symmetric(Poly(2, {(1, 1): Fraction(1)}))


def test_rewrite_rejects_asymmetric():
    with pytest.raises(RewriteFailed):
        rewrite_even_symmetric(Poly(2, {(2, 0): Fraction(1)}))


def test_sign_checks_consistent_small():
    a2 = check_sign_A(2, random_interior_centers(make_spec("A", 2), 4, SEED))
    assert a2.verdict == "consistent"
    a3 = check_sign_A(3, random_interior_centers(make_spec("A", 3), 4, SEED))
    assert a3.verdict == "consistent"
    d3 = check_sign_D(3, random_interior_centers(make_spec("D", 3), 4, SEED))
    assert d3.verdict == "consistent"


def _recorded_folds(monkeypatch, fold=None):
    """Route the sign checks' folds, CenterSeries.value, through
    fold(series, degree_cap) (the real one by default) and return the list
    of (center, cap) they are called with."""
    calls = []
    inner = fold or oracle.CenterSeries.value

    def recorded(series, degree_cap):
        calls.append((tuple(series.center), degree_cap))
        return inner(series, degree_cap)
    monkeypatch.setattr(oracle.CenterSeries, "value", recorded)
    return calls


@pytest.mark.parametrize("family,check", [("D", check_sign_D), ("A", check_sign_A)])
def test_sign_checks_consistent_rank_seven(monkeypatch, family, check):
    calls = _recorded_folds(monkeypatch)
    centers = random_interior_centers(make_spec(family, 7), 3, 5, radius=0.4, margin=0.01)
    report = check(7, centers)
    assert report.verdict == "consistent"
    assert report.notes == []
    # a probe below |Phi+| folds to exactly 0; stepping from there sent every
    # D_7 center to cap 400
    assert max(cap for _, cap in calls) < 100


def test_sign_check_d9_at_two_dyadic_centers():
    # the frontier of the exact fold in Tier-1: 945 matchings, decided at
    # caps 150 and 146, about 2 s; the verdict is what the code returns
    centers = [tuple(x / 64 for x in (13, -7, 3, 10, -1, 5, -12, 8, 2)),
               tuple(x / 64 for x in (-2, 11, 6, -9, 4, 14, -3, 1, -7))]
    report = check_sign_D(9, centers)
    assert report.verdict == "consistent"
    assert report.notes == [] and report.witnesses == []


@pytest.mark.parametrize("family,rank", [("D", 5), ("A", 6)])
def test_sign_escalation_decides_no_later_than_the_fixed_step_route(monkeypatch, family, rank):
    spec = make_spec(family, rank)
    calls = _recorded_folds(monkeypatch)
    for center in random_interior_centers(spec, 3, SEED, radius=0.3):
        calls.clear()
        value, tail, cap = conjectures._signed_estimate(spec, center)
        # the probe at |Phi+| folds nothing: one fold, at the cap its value asks for
        assert [c for _, c in calls] == [cap]
        old_value, old_tail, old_cap = signed_estimate_fixed_step(spec, center)
        assert abs(value) > tail and abs(old_value) > old_tail
        assert (value > 0) == (old_value > 0)
        assert cap <= min(old_cap, 40)


LOWEST_ORDER_SPECS = [("A", 2), ("A", 3), ("A", 6), ("A", 7), ("D", 3), ("D", 5), ("D", 7)]


@pytest.mark.parametrize("family,rank", LOWEST_ORDER_SPECS,
                         ids=[f"{f}{n}" for f, n in LOWEST_ORDER_SPECS])
def test_lowest_order_term_is_the_probe_fold(family, rank):
    # the closed form c_() prod <alpha, a> / 2^m is the fold at cap |Phi+|, and the
    # block of degree |Phi+| of a fold four degrees past it, at centers near the walls
    spec = make_spec(family, rank)
    degree = spec.positive_root_count
    half = 1 << oracle.fold_parameters(spec).half_degree(degree)
    for radius in (0.3, 0.6, 0.9):
        for center in random_interior_centers(spec, 3, SEED, radius=radius, margin=0.002):
            series = oracle.CenterSeries(spec, center)
            term = conjectures._lowest_order_term(series)
            assert term != 0
            assert term == oracle.CenterSeries(spec, center).value(degree)[0]
            assert term == series.folds(degree + 4)[degree] / half


SEARCH_CENTERS = [("A", 6, 0.4, 6), ("A", 6, 0.9, 4), ("A", 7, 0.4, 4), ("D", 5, 0.4, 6),
                  ("D", 7, 0.4, 3)]


@pytest.mark.parametrize("family,rank,radius,count", SEARCH_CENTERS,
                         ids=[f"{f}{n}-r{r}" for f, n, r, _ in SEARCH_CENTERS])
def test_cap_bisection_picks_the_linear_scans_cap(family, rank, radius, count):
    # the bound does not grow with the cap, so bisection and the scan stop at the same cap
    spec = make_spec(family, rank)
    for center in random_interior_centers(spec, count, SEED, radius=radius, margin=0.01):
        assert conjectures._signed_estimate(spec, center) == signed_estimate_linear_scan(spec, center)


def test_cap_search_evaluates_the_bound_logarithmically(monkeypatch):
    # far centers decide at caps 63-133, where a scan from the probe at |Phi+| = 21
    # evaluates the bound at 21-56 caps
    spec = make_spec("A", 6)
    evaluated = []
    real = oracle.CenterSeries.bound

    def counted(series, cap):
        evaluated.append(cap)
        return real(series, cap)
    monkeypatch.setattr(oracle.CenterSeries, "bound", counted)
    calls = _recorded_folds(monkeypatch)
    caps = len(range(spec.positive_root_count + 2, oracle.MAX_DEGREE_CAP, 2))
    for center in random_interior_centers(spec, 4, SEED, radius=0.9, margin=0.01):
        evaluated.clear()
        calls.clear()
        cap = conjectures._signed_estimate(spec, center)[2]
        assert [c for _, c in calls] == [cap] and cap > 60
        # the deciding fold reads its own bound last; the probe and the search read the rest
        assert evaluated[-1] == cap
        assert 0 < len(evaluated) - 1 <= math.ceil(math.log2(caps)) + 1


@pytest.mark.parametrize("family,rank", [("D", 5), ("A", 6)])
def test_sign_estimate_counts_each_center_once(monkeypatch, family, rank):
    # the probe, the cap search and the deciding fold share one object per
    # center: one clearing of its forms, and one count of the squared radii
    spec = make_spec(family, rank)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    counted = {"_edge_forms": 0, "_squared_radii": 0}
    for name in counted:
        def count(*args, name=name, real=getattr(oracle, name)):
            counted[name] += 1
            return real(*args)
        monkeypatch.setattr(oracle, name, count)
    calls = _recorded_folds(monkeypatch)
    conjectures._signed_estimate(spec, center)
    assert len(calls) == 1  # the fold at the cap the tail bound chose; the probe folds nothing
    assert counted == {"_edge_forms": 1, "_squared_radii": 1}


@pytest.mark.parametrize("band", [(Fraction(0), Fraction(1)), (Fraction(1, 10**9), Fraction(1, 10**9))],
                         ids=["zero", "straddling"])
def test_sign_escalation_stops_at_cap_400(monkeypatch, band):
    # the band is forced at every fold and at the probe, which folds nothing:
    # its value is the closed form, and its tail the bound at |Phi+|
    spec = make_spec("D", 5)
    real = oracle.CenterSeries.bound

    def forced_tails(series, cap):
        return band[1] if cap == spec.positive_root_count else real(series, cap)
    monkeypatch.setattr(oracle.CenterSeries, "bound", forced_tails)
    monkeypatch.setattr(conjectures, "_lowest_order_term", lambda series: band[0])
    calls = _recorded_folds(monkeypatch, lambda series, degree_cap: band)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    report = check_sign_D(5, [center])
    assert report.verdict == "inconclusive"
    assert report.witnesses == []
    assert len(report.notes) == 1 and report.notes[0].endswith("cap 400)")
    caps = [cap for _, cap in calls]
    assert caps[0] > spec.positive_root_count and caps[-1] == 400
    assert caps == sorted(set(caps))  # every fold runs higher than the last
    # a zero value steps by 40; a nonzero one is re-chosen at least 2 higher
    assert len(caps) <= (1 + 380 // 40 if band[0] == 0 else 380 // 2)


def test_sign_check_samples_no_center_whose_band_straddles_zero(monkeypatch):
    # such a band decides no sign, so Monte Carlo has nothing to cross-check
    _recorded_folds(monkeypatch, lambda series, degree_cap: (Fraction(1, 10**9),) * 2)
    sampled = []
    real = conjectures.mc_pizza

    def counted(*args):
        sampled.append(args)
        return real(*args)
    monkeypatch.setattr(conjectures, "mc_pizza", counted)
    centers = random_interior_centers(make_spec("D", 5), 2, SEED, radius=0.3)
    report = check_sign_D(5, centers, 20_000, SEED).to_json_dict()
    assert sampled == []
    unsampled = check_sign_D(5, centers, 0, SEED).to_json_dict()
    for r in (report, unsampled):
        del r["runtime_ms"]
    unsampled["params"]["samples"] = 20_000
    assert report == unsampled
    assert report["verdict"] == "inconclusive" and len(report["notes"]) == 2


def test_sign_escalation_witness_carries_the_deciding_cap(monkeypatch):
    real = oracle.CenterSeries.value

    def flipped(series, degree_cap):
        value, tail = real(series, degree_cap)
        return -value, tail
    calls = _recorded_folds(monkeypatch, flipped)
    spec = make_spec("A", 6)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    report = check_sign_A(6, [center])
    assert report.verdict == "violated"
    (witness,) = report.witnesses
    assert witness["center"] == list(center)
    assert witness["degree_cap"] == calls[-1][1] == max(cap for _, cap in calls)
    value, tail = flipped(oracle.CenterSeries(spec, center), witness["degree_cap"])
    assert witness["estimate_exact"] == str(value)
    assert witness["tail_bound"] == float(tail) < abs(float(value))


def test_sign_check_with_mc_cross_validation():
    centers = random_interior_centers(make_spec("A", 2), 2, SEED, radius=0.35)
    report = check_sign_A(2, centers, samples=300_000, seed=SEED)
    assert report.verdict == "consistent"


def test_sign_cross_check_passes_noise_around_a_tiny_value():
    # the exact value is about 1e-19, far below Monte Carlo's error, whose
    # estimate 0.117 +- 0.037 is 3.1 sigma from zero with the other sign: noise,
    # not a disagreement
    report = check_sign_D(5, [(-0.04296875, 0.109375, 0.0, 0.15234375, 0.23046875)],
                          20_000, 479803990)
    assert report.verdict == "consistent"


@pytest.mark.parametrize("sigmas,raises", [(10, True), (5.5, True), (4.5, False), (-4.5, False),
                                           (-5.5, True)])
def test_sign_cross_check_measures_the_gap_to_the_exact_value(monkeypatch, sigmas, raises):
    # a planted estimate `sigmas` standard errors from the exact value, away from zero
    # (the exact value's sign) or, for sigmas < 0, across it; the standard error is at
    # least a hundred times the series' scaled tail band, so 5 sigma is the threshold
    spec, center = make_spec("D", 3), (0.3, 0.2, 0.05)
    value, tail, _ = conjectures._signed_estimate(spec, center)
    prefactor = oracle.series_prefactor(spec, fold_parameters(spec).k)
    quantity, band = prefactor * float(value), prefactor * float(tail)
    error = 100 * band + abs(quantity) / 100
    planted = McEstimate(quantity + sigmas * error * (1 if quantity > 0 else -1), error, 20_000, 0)
    assert ((planted.value > 0) == (quantity > 0)) == (sigmas > 0)
    monkeypatch.setattr(conjectures, "mc_pizza", lambda *args: planted)
    if raises:
        with pytest.raises(conjectures.OracleDisagreement, match=r"^center \(0\.3, 0\.2, 0\.05\): "
                                                                  "series fold gives"):
            check_sign_D(3, [center], 20_000, 0)
    else:
        assert check_sign_D(3, [center], 20_000, 0).verdict == "consistent"


@pytest.mark.extended
@pytest.mark.parametrize("family,check,count", [("D", check_sign_D, 8), ("A", check_sign_A, 4)])
def test_sign_cross_check_raises_nothing_on_two_hundred_seeds(family, check, count):
    spec = make_spec(family, 5 if family == "D" else 6)
    for seed in range(200):
        centers = random_interior_centers(spec, count, seed, radius=0.3)
        assert check(spec.rank, centers, 20_000, seed).verdict == "consistent"


def test_sign_check_origin_is_degenerate_note():
    # no center probed: nothing supports the statement, so the verdict is not "consistent"
    report = check_sign_D(3, [(0.0, 0.0, 0.0)])
    assert report.verdict == "inconclusive"
    assert any("degenerate" in note for note in report.notes)


def test_sign_check_wall_center_raises():
    with pytest.raises(OnHyperplane):
        check_sign_D(3, [(0.3, 0.3, 0.1)])


def test_sign_check_regime_validation():
    # the regime is written once: both checks raise _require_symbolic_regime's message
    for check, family, center in ((check_sign_A, "A", (0.1, 0.0, 0.0, 0.0, -0.1)),
                                  (check_sign_D, "D", (0.1, 0.05, 0.02, 0.01))):
        with pytest.raises(ParityRegimeError) as regime:
            _require_symbolic_regime(make_spec(family, 4))
        with pytest.raises(ParityRegimeError) as raised:
            check(4, [center])
        assert str(raised.value) == str(regime.value)
    assert str(regime.value) == "type D rank 4: even rank is outside the expansion regime"


def test_report_serialization():
    report = check_y_negativity(3, 8)
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "consistent"
    assert doc["conjecture_id"] == "yNeg"
    assert isinstance(doc["runtime_ms"], float)
    assert isinstance(report, ConjectureReport)
