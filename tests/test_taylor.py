import json
import random
from fractions import Fraction

import pytest

from coxpizza.matchings import Matching, two_structure
from coxpizza.polyring import Poly, vandermonde
from coxpizza.rootsys import make_spec
from coxpizza.taylor import (ParityRegimeError, ResourceCapExceeded,
                             c_coefficient, expansion_report,
                             power_sum_multiple, quotient, reduce_mod_relation,
                             t_eval_on_structure, t_poly, y_poly, z_poly,
                             z_poly_reference)


def p2(arity, c=1):
    return Poly(arity, {tuple(2 if i == j else 0 for i in range(arity)): Fraction(c)
                        for j in range(arity)})


# -- series coefficients -----------------------------------------------------


def test_c0_is_one():
    for n, k in ((2, 1), (7, 4), (5, 5)):
        assert c_coefficient(n, k, 0) == 1


def test_c_first_values():
    assert c_coefficient(2, 1, 1) == Fraction(-1, 2)
    assert c_coefficient(2, 1, 2) == Fraction(-1, 8)


def test_c_sequence_squares_to_linear_series():
    # independent identity: the generating series for exponent 1/2 squared
    # is exactly 1 - x, so the coefficient convolution must telescope
    top = 12
    c = [c_coefficient(2, 1, m) for m in range(top + 1)]
    for m in range(top + 1):
        conv = sum(c[j] * c[m - j] for j in range(m + 1))
        expected = {0: Fraction(1), 1: Fraction(-1)}.get(m, Fraction(0))
        assert conv == expected


def test_c_sequence_three_halves_from_product():
    # exponent 3/2 series equals the 1/2 series times (1 - x)
    top = 10
    half = [c_coefficient(2, 1, m) for m in range(top + 1)]
    three_halves = [c_coefficient(7, 4, m) for m in range(top + 1)]
    for m in range(top + 1):
        expected = half[m] - (half[m - 1] if m else 0)
        assert three_halves[m] == expected


def test_c_integer_exponent_terminates():
    # (n-k)/2 = 1: polynomial case, coefficients vanish beyond m = 1
    assert c_coefficient(3, 1, 0) == 1
    assert c_coefficient(3, 1, 1) == -1
    assert c_coefficient(3, 1, 2) == 0


# -- Taylor blocks -----------------------------------------------------------


def test_block_at_lowest_degree_is_product_of_variables():
    for n, k in ((2, 1), (3, 2), (7, 4)):
        body = t_poly(n, k, k).body
        assert body == Poly(k, {(1,) * k: Fraction(1)})


def test_block_n2_k1_degree3():
    assert t_poly(2, 1, 3).body == Poly(1, {(3,): Fraction(-1, 6)})


def test_block_zero_outside_parity():
    assert t_poly(3, 2, 1).body.is_zero()  # below k
    assert t_poly(3, 2, 5).body.is_zero()  # wrong parity


def test_block_symmetry_and_oddness():
    body = t_poly(6, 3, 9).body
    assert body.permute_variables([1, 2, 0]) == body
    assert body.permute_variables([1, 0, 2]) == body
    for i in range(3):
        assert body.flip_variable_sign(i) == -body
    assert body.is_homogeneous() and body.degree() == 9


def test_block_composition_degree2_unit_roots():
    phi = two_structure(make_spec("D", 3), Matching(((1, 2),), 3, 3))
    block = t_poly(3, 2, 2)
    composed = t_eval_on_structure(block, phi, 3)
    # (a1-a2)(a1+a2) = a1^2 - a2^2
    assert composed == Poly(3, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})


def test_block_composition_a2_edge():
    spec = make_spec("A", 2)
    phi = two_structure(spec, Matching(((1, 2),), 3, 3))
    composed = t_eval_on_structure(t_poly(2, 1, 3), phi, 3)
    # -(a1 - a2)^3 / 6
    assert composed == Poly(3, {(3, 0, 0): Fraction(-1, 6), (2, 1, 0): Fraction(1, 2),
                                (1, 2, 0): Fraction(-1, 2), (0, 3, 0): Fraction(1, 6)})


def test_composition_homogeneous():
    phi = two_structure(make_spec("D", 5), Matching(((1, 3), (2, 5)), 4, 5))
    composed = t_eval_on_structure(t_poly(5, 4, 8), phi, 5)
    assert composed.is_homogeneous() and composed.degree() == 8


# -- the signed fold ---------------------------------------------------------


def test_fold_worked_example_a2_degree3():
    """Canonical worked example: three matchings of {1,2,3} with signs
    +, -, +, composed cubes summing to half the Vandermonde product."""
    z = z_poly(make_spec("A", 2), 3)
    assert z == vandermonde(3).scale(Fraction(1, 2))


def test_fold_matches_reference_composition():
    cases = [("A", 2, 3), ("A", 2, 5), ("A", 2, 7), ("A", 3, 6), ("A", 3, 8),
             ("D", 3, 6), ("D", 3, 8)]
    for family, rank, d in cases:
        spec = make_spec(family, rank)
        assert z_poly(spec, d) == z_poly_reference(spec, d), (family, rank, d)


def test_fold_zero_at_wrong_parity():
    assert z_poly(make_spec("A", 2), 4).is_zero()
    assert z_poly(make_spec("D", 3), 7).is_zero()


def test_fold_vanishes_below_root_count():
    for family, rank, d in (("A", 2, 1), ("A", 3, 4), ("D", 3, 4), ("D", 5, 18)):
        assert z_poly(make_spec(family, rank), d).is_zero(), (family, rank, d)


def test_fold_rejects_same_parity_regime():
    with pytest.raises(ParityRegimeError):
        z_poly(make_spec("A", 4), 10)
    with pytest.raises(ParityRegimeError):
        z_poly(make_spec("D", 4), 12)
    with pytest.raises(ParityRegimeError):
        z_poly(make_spec("A", 1), 1)


def test_fold_skew_under_transpositions():
    rng = random.Random(31)
    for spec, d in ((make_spec("A", 3), 6), (make_spec("D", 3), 8)):
        z = z_poly(spec, d)
        for _ in range(3):
            i, j = rng.sample(range(z.arity), 2)
            perm = list(range(z.arity))
            perm[i], perm[j] = perm[j], perm[i]
            assert z.permute_variables(perm) == -z


def test_fold_type_d_invariant_under_sign_flips():
    z = z_poly(make_spec("D", 3), 8)
    for i in range(3):
        assert z.flip_variable_sign(i) == z


def laplacian(p):
    terms = {}
    for mono, c in p.terms.items():
        for i, e in enumerate(mono):
            if e >= 2:
                lowered = mono[:i] + (e - 2,) + mono[i + 1:]
                terms[lowered] = terms.get(lowered, 0) + c * e * (e - 1)
    return Poly(p.arity, terms)


@pytest.mark.parametrize("family,rank,extra", [
    (family, rank, extra)
    for family, rank in (("A", 2), ("A", 3), ("D", 3), ("D", 5))
    for extra in (0, 2)
])
def test_fold_laplacian_recursion(family, rank, extra):
    # Darboux's equation for ball means, applied to sum_d r^(n-d) Z_d:
    # Laplacian(Z_(d+2)) = -2 d (n-d) Z_d on the integer-root forms
    spec = make_spec(family, rank)
    d = spec.positive_root_count + extra
    lower = z_poly(spec, d)
    assert not lower.is_zero()
    assert laplacian(z_poly(spec, d + 2)) == lower.scale(-2 * d * (rank - d))


def test_fold_deterministic_across_chunking():
    spec = make_spec("A", 3)
    serial = z_poly(spec, 8, threads=1)
    chunked = z_poly(spec, 8, threads=3)
    assert serial == chunked


def test_resource_guards():
    for route in (z_poly, quotient):
        with pytest.raises(ResourceCapExceeded):
            route(make_spec("A", 2), 61)
        with pytest.raises(ResourceCapExceeded):
            route(make_spec("A", 14), 29)  # 15!! matchings x 2^7 forms over the cap


def test_frontier_size_is_accepted():
    # the next open type A case must start (guard admits it); probe via the
    # progress callback and abort before any matching is processed
    spec = make_spec("A", 10)

    class Stop(Exception):
        pass

    def progress(done, total):
        assert done == 0 and total == 10395
        raise Stop

    with pytest.raises(Stop):
        z_poly(spec, 55, progress=progress)


# -- quotients ---------------------------------------------------------------


CROSS_ROUTE_CASES = ([("A", 2, d) for d in range(3, 10, 2)]
                     + [("A", 3, d) for d in range(6, 13, 2)]
                     + [("A", 6, 21), ("A", 6, 23)]
                     + [("D", 3, d) for d in range(6, 13, 2)]
                     + [("D", 5, d) for d in range(20, 27, 2)]
                     + [("A", 3, 36)])


@pytest.mark.parametrize("family,rank,d", CROSS_ROUTE_CASES,
                         ids=[f"{f}{r}_d{d}" for f, r, d in CROSS_ROUTE_CASES])
def test_quotient_matches_division_of_full_fold(cache, family, rank, d):
    # the dominant-coefficient route against the full fold divided by the
    # Vandermonde, a route that does not assume the fold is alternating
    assert quotient(make_spec(family, rank), d) == cache.quotient(family, rank, d)


def test_quotient_validates_threads():
    with pytest.raises(ValueError):
        quotient(make_spec("D", 3), 6, threads=-1)


def test_quotient_progress_counts_every_matching():
    calls = []
    q = quotient(make_spec("A", 10), 55, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(done, 10395) for done in range(10396)]
    assert q.degree() == 0 and not q.is_zero()


def test_quotient_table_values_small():
    assert quotient(make_spec("A", 2), 3) == Poly.constant(3, Fraction(1, 2))
    assert quotient(make_spec("A", 3), 6) == Poly.constant(4, Fraction(-1, 6))
    assert quotient(make_spec("D", 3), 6) == Poly.constant(3, Fraction(-1, 6))
    assert quotient(make_spec("D", 5), 20) == Poly.constant(5, Fraction(-143, 40))


def test_quotient_second_terms_small():
    d3 = quotient(make_spec("D", 3), 8)
    assert d3 == p2(3, Fraction(-1, 10))
    a2 = quotient(make_spec("A", 2), 5)
    spec = make_spec("A", 2)
    assert reduce_mod_relation(a2 - p2(3, Fraction(3, 32)), spec).is_zero()


def test_quotient_zero_below_root_count():
    assert quotient(make_spec("A", 2), 1).is_zero()


def test_quotient_type_d_symmetric_in_squares():
    q = quotient(make_spec("D", 5), 22)
    assert all(all(e % 2 == 0 for e in mono) for mono in q.terms)
    for i in range(4):
        perm = list(range(5))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        assert q.permute_variables(perm) == q


def test_power_sum_multiple_detection():
    assert power_sum_multiple(p2(4, Fraction(-3, 7))) == Fraction(-3, 7)
    assert power_sum_multiple(p2(4) + Poly.variable(4, 0, 2)) is None
    assert power_sum_multiple(Poly.constant(4, 1)) is None


def test_reduce_mod_relation():
    spec = make_spec("A", 3)
    total = Poly.linear_form(4, (1, 1, 1, 1))
    assert reduce_mod_relation(total, spec).is_zero()
    const = Poly.constant(4, Fraction(5, 3))
    assert reduce_mod_relation(const, spec) == const
    with pytest.raises(ValueError):
        reduce_mod_relation(Poly.constant(3, 1), make_spec("D", 3))


# -- the reduced fold --------------------------------------------------------


def test_y_leading_coefficient_matches_quotient():
    y = y_poly(3, 6)
    assert y.coefficient((4, 2)) == Fraction(-1, 6)


def test_y_second_degree_coefficient():
    y = y_poly(3, 8)
    assert y.coefficient((6, 2)) == Fraction(-1, 10)


def test_y_even_in_each_variable():
    for n, d in ((3, 6), (3, 8), (5, 20)):
        y = y_poly(n, d)
        assert not y.is_zero()
        for mono in y.terms:
            assert all(e % 2 == 0 for e in mono), (n, d, mono)


def test_y_no_repeated_positive_exponent():
    # no monomial carries two equal nonzero exponents
    for n, d in ((3, 8), (5, 20), (5, 22)):
        y = y_poly(n, d)
        for mono in y.terms:
            positive = [e for e in mono if e > 0]
            assert len(set(positive)) == len(positive), (n, d, mono)


def test_y_agrees_with_fold_on_decreasing_monomials():
    # on monomials with every exponent positive the reduced fold matches the
    # full fold with its last variable dropped
    n, d = 3, 8
    y = y_poly(n, d)
    shift = (d - n * (n - 1)) // 2
    z = z_poly(make_spec("D", n), d).scale(Fraction(1, 1 << shift))
    for mono, coeff in y.terms.items():
        if all(e > 0 for e in mono):
            assert z.coefficient(mono + (0,)) == coeff


def test_y_rejects_even_rank():
    with pytest.raises(ParityRegimeError):
        y_poly(4, 12)


# -- reports -----------------------------------------------------------------


def test_expansion_report_shapes():
    spec = make_spec("A", 2)
    report = expansion_report(spec, [3, 5])
    assert report.phi_plus_count == 3 and report.k == 1
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert [e["degree"] for e in doc["entries"]] == [3, 5]
    assert doc["entries"][0]["quotient_terms"] == [{"exponents": [0, 0, 0], "num": 1, "den": 2}]
    assert doc["entries"][0]["reduced_quotient_terms"] is not None
    json.dumps(doc)  # serializable
    text = report.to_text()
    assert "degree 3: 1/2" in text


def test_expansion_report_type_d_has_no_reduction():
    report = expansion_report(make_spec("D", 3), [6])
    assert report.entries[0].reduced_quotient is None


def test_quotient_degree_matches_shift():
    spec = make_spec("D", 3)
    for d in (6, 8, 10):
        q = quotient(spec, d)
        assert q.degree() == d - spec.positive_root_count
