import itertools
import math
import random
from fractions import Fraction

import pytest

from coxpizza import conjectures, oracle
from coxpizza.conjectures import (ConjectureReport, ReconstructionMismatch, RewriteFailed,
                                  _determinant_mod, _t_block_basis, _u_v_basis, check_lemma51,
                                  check_sign_A, check_sign_D, check_t_positivity,
                                  check_y_negativity, schur_reconstruct)
from coxpizza.oracle import random_interior_centers
from coxpizza.polyring import NonDivisible, Poly, exact_divide_linear
from coxpizza.rootsys import OnHyperplane, make_spec
from coxpizza.taylor import ParityRegimeError, ResourceCapExceeded, _require_symbolic_regime
import reference
from reference import (alternant, compose_block, evaluate, lemma51_by_fold, rewrite_even_symmetric,
                       schur_lambda_coefficients, signed_estimate_fixed_step, t_poly)

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


@pytest.mark.parametrize("n,d", [(3, 7), (3, 4), (5, 19), (5, 10)])
def test_lemma51_refuses_degrees_where_the_fold_vanishes(n, d):
    # below n(n-1) or at the other parity the fold is zero: nothing to audit
    with pytest.raises(ValueError, match=f"^degree {d} below the lowest nonzero degree "
                                         f"{n * (n - 1)} or wrong parity$"):
        check_lemma51(n, d)


@pytest.mark.parametrize("check", [check_lemma51, schur_reconstruct])
def test_type_d_audits_refuse_even_ranks_before_any_estimate(check):
    with pytest.raises(ParityRegimeError, match="^type D rank 4: even rank is outside the expansion"):
        check(4, 12)


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


def test_y_negativity_rejects_even_rank():
    # the type D regime refusal that check schur and check lemma51 give too
    with pytest.raises(ParityRegimeError, match="type D rank 4: even rank is outside"):
        check_y_negativity(4, 16)


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

    monkeypatch.setattr(conjectures, "exact_sign_fold", fail)
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


def test_t_positivity_leading_cases():
    report = check_t_positivity(16)
    assert report.verdict == "consistent"
    assert report.parameters["degrees"] == [6, 8, 10, 12, 14, 16]


def test_t_block_basis_matches_the_composed_block():
    # the reference route: compose T(3, 2) with (x+y, x-y), normalize to unit
    # forms, negate, divide by x-y and x+y, rewrite in u = x^2+y^2, v = x^2 y^2
    x_plus_y, x_minus_y = Poly.linear_form(2, (1, 1)), Poly.linear_form(2, (1, -1))
    for d in range(6, 41, 2):
        composed = compose_block(t_poly(3, 2, d), [x_plus_y, x_minus_y])
        negated = -composed.scale(Fraction(1, 1 << (d // 2)))
        quot = exact_divide_linear(exact_divide_linear(negated, x_minus_y), x_plus_y)
        assert _t_block_basis(d) == rewrite_even_symmetric(quot), d


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
    """Route the sign checks' folds through `fold` (the real one by default)
    and return the list of (center, cap) they are called with."""
    calls = []
    inner = fold or conjectures.exact_sign_fold

    def recorded(spec, center, degree_cap):
        calls.append((tuple(center), degree_cap))
        return inner(spec, center, degree_cap)
    monkeypatch.setattr(conjectures, "exact_sign_fold", recorded)
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
        # a probe at |Phi+|, then one fold at the cap its value asks for
        assert [c for _, c in calls] == [spec.positive_root_count, cap]
        old_value, old_tail, old_cap = signed_estimate_fixed_step(spec, center)
        assert abs(value) > tail and abs(old_value) > old_tail
        assert (value > 0) == (old_value > 0)
        assert cap <= min(old_cap, 40)


@pytest.mark.parametrize("family,rank", [("D", 5), ("A", 6)])
def test_sign_estimate_counts_each_center_once(monkeypatch, family, rank):
    # the probe fold, the cap search and the deciding fold share one tail
    # bound per center, and with it one count of the squared radii
    spec = make_spec(family, rank)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    oracle._center_tails.cache_clear()  # a center an earlier test left cached is no miss
    calls = _recorded_folds(monkeypatch)
    conjectures._signed_estimate(spec, center)
    assert len(calls) == 2  # the probe, then the fold at the cap the tail bound chose
    info = oracle._center_tails.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("band", [(Fraction(0), Fraction(1)), (Fraction(1, 10**9), Fraction(1, 10**9))],
                         ids=["zero", "straddling"])
def test_sign_escalation_stops_at_cap_400(monkeypatch, band):
    calls = _recorded_folds(monkeypatch, lambda spec, center, degree_cap: band)
    spec = make_spec("D", 5)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    report = check_sign_D(5, [center])
    assert report.verdict == "inconclusive"
    assert report.witnesses == []
    assert len(report.notes) == 1 and report.notes[0].endswith("cap 400)")
    caps = [cap for _, cap in calls]
    assert caps[0] == spec.positive_root_count and caps[-1] == 400
    assert caps == sorted(set(caps))  # every fold runs higher than the last
    # a zero value steps by 40; a nonzero one is re-chosen at least 2 higher
    assert len(caps) <= (2 + 380 // 40 if band[0] == 0 else 1 + 380 // 2)


def test_sign_check_samples_no_center_whose_band_straddles_zero(monkeypatch):
    # such a band decides no sign, so Monte Carlo has nothing to cross-check
    _recorded_folds(monkeypatch, lambda spec, center, degree_cap: (Fraction(1, 10**9),) * 2)
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
    real = conjectures.exact_sign_fold

    def flipped(spec, center, degree_cap):
        value, tail = real(spec, center, degree_cap)
        return -value, tail
    calls = _recorded_folds(monkeypatch, flipped)
    spec = make_spec("A", 6)
    center = random_interior_centers(spec, 1, SEED, radius=0.3)[0]
    report = check_sign_A(6, [center])
    assert report.verdict == "violated"
    (witness,) = report.witnesses
    assert witness["center"] == list(center)
    assert witness["degree_cap"] == calls[-1][1] == max(cap for _, cap in calls)
    value, tail = flipped(spec, center, witness["degree_cap"])
    assert witness["estimate_exact"] == str(value)
    assert witness["tail_bound"] == float(tail) < abs(float(value))


def test_sign_check_with_mc_cross_validation():
    centers = random_interior_centers(make_spec("A", 2), 2, SEED, radius=0.35)
    report = check_sign_A(2, centers, samples=300_000, seed=SEED)
    assert report.verdict == "consistent"


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
