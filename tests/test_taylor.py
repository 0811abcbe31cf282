import json
import math
import random
from fractions import Fraction

import pytest

from coxpizza import matchings, taylor
from coxpizza.cli import main
from coxpizza.matchings import Matching, c_coefficient, fold_parameters
from coxpizza.polyring import Poly, partitions, schur_combination
from coxpizza.rootsys import make_spec
from coxpizza.taylor import (ParityRegimeError, ResourceCapExceeded, _edge_table, _pfaffian,
                             dominant_coefficients, expansion_report, quotient,
                             reduce_mod_relation, z_poly)
from reference import (coefficient, constant, dominant_coefficients_by_matchings,
                       edge_table_by_composition, flip_variable_sign, permute_variables,
                       pfaffian_by_matchings, power, power_sum_multiple, t_eval_on_structure, t_poly,
                       two_structure, vandermonde, z_poly_reference)


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
    assert permute_variables(body, [1, 2, 0]) == body
    assert permute_variables(body, [1, 0, 2]) == body
    for i in range(3):
        assert flip_variable_sign(body, i) == -body
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


# -- per-edge tables -----------------------------------------------------------


@pytest.mark.parametrize("pair_forms", [False, True])
def test_edge_table_matches_its_definition(pair_forms):
    # one form: (x-y)^a / (a q!); the minus/plus pair: the sum over r+s=q of
    # (x-y)^a (x+y)^b / (a b r! s!); both expanded with Poly over Fractions
    minus, plus = Poly.linear_form(2, (1, -1)), Poly.linear_form(2, (1, 1))
    for q in range(13):
        if pair_forms:
            expected = Poly.zero(2)
            for r in range(q + 1):
                a, b = 2 * r + 1, 2 * (q - r) + 1
                weight = Fraction(1, a * b * math.factorial(r) * math.factorial(q - r))
                expected = expected + (power(minus, a) * power(plus, b)).scale(weight)
        else:
            a = 2 * q + 1
            expected = power(minus, a).scale(Fraction(1, a * math.factorial(q)))
        table, scalar = _edge_table(pair_forms, q)
        assert Poly(2, {mono: Fraction(c, scalar) for mono, c in table.items()}) == expected, q
        # cleared by the least scalar, keys descending, no zero entries
        assert math.gcd(scalar, *table.values()) == 1, q
        assert list(table) == sorted(table, reverse=True) and all(table.values()), q


def test_edge_table_small_cases():
    assert _edge_table(False, 0) == ({(1, 0): 1, (0, 1): -1}, 1)
    assert _edge_table(False, 1) == ({(3, 0): 1, (2, 1): -3, (1, 2): 3, (0, 3): -1}, 3)
    # (x-y)(x+y) = x^2 - y^2
    assert _edge_table(True, 0) == ({(2, 0): 1, (0, 2): -1}, 1)
    # ((x-y)^3 (x+y) + (x-y)(x+y)^3) / 3 = 2 (x^4 - y^4) / 3
    assert _edge_table(True, 1) == ({(4, 0): 2, (0, 4): -2}, 3)


@pytest.mark.parametrize("pair_forms", [False, True])
def test_edge_table_equals_the_composition_products(pair_forms):
    # the closed forms (binomial row, two-term recurrence) against the sum of
    # binomial-row products over compositions, key order included
    for q in range(61):
        table, scalar = _edge_table(pair_forms, q)
        expected, expected_scalar = edge_table_by_composition(pair_forms, q)
        assert scalar == expected_scalar and list(table.items()) == list(expected.items()), q


# -- the signed fold ---------------------------------------------------------


def test_fold_worked_example_a2_degree3():
    """Canonical worked example: three matchings of {1,2,3} with signs
    +, -, +, composed cubes summing to half the Vandermonde product."""
    z = z_poly(make_spec("A", 2), 3)
    assert z == vandermonde(3).scale(Fraction(1, 2))


def test_fold_matches_reference_composition():
    cases = [("A", 2, 3), ("A", 2, 5), ("A", 2, 7), ("A", 3, 6), ("A", 3, 8),
             ("D", 3, 6), ("D", 3, 8), ("D", 5, 20)]
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
            assert permute_variables(z, perm) == -z


def test_fold_type_d_invariant_under_sign_flips():
    z = z_poly(make_spec("D", 3), 8)
    for i in range(3):
        assert flip_variable_sign(z, i) == z


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


def test_fold_same_for_any_thread_count():
    spec = make_spec("A", 3)
    with pytest.raises(ValueError):
        z_poly(spec, 8, threads=-1)
    folds = [z_poly(spec, 8, threads=threads) for threads in (0, 1, 3)]
    assert not folds[0].is_zero()
    assert folds[0] == folds[1] == folds[2]


def test_resource_guards():
    # z_poly packs exponents into 8 bits and visits every matching
    with pytest.raises(ResourceCapExceeded):
        z_poly(make_spec("A", 2), 61)
    with pytest.raises(ResourceCapExceeded):
        z_poly(make_spec("A", 14), 29)  # 15!! matchings x 2^7 forms over the cap
    # the quotient's cost: edge tables to inner degree 368 (D_3 d738), a Schur
    # expansion over C(46, 6) monomials (A_6 d61), edge tables to 500 (A_2)
    for family, rank, d in (("D", 3, 738), ("A", 6, 61), ("A", 2, 1001)):
        with pytest.raises(ResourceCapExceeded, match="exceed the cap"):
            quotient(make_spec(family, rank), d)


def test_frontier_size_is_accepted(monkeypatch):
    # the next open type A case must start (guard admits it); abort at the
    # first enumerated matching, before any is folded
    class Stop(Exception):
        pass

    def stop_at_first(ground):
        assert ground == 11
        yield from ()
        raise Stop
    monkeypatch.setattr(taylor, "enumerate_matchings", stop_at_first)
    with pytest.raises(Stop):
        z_poly(make_spec("A", 10), 55)


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


def test_quotient_table_values_small():
    assert quotient(make_spec("A", 2), 3) == constant(3, Fraction(1, 2))
    assert quotient(make_spec("A", 3), 6) == constant(4, Fraction(-1, 6))
    assert quotient(make_spec("D", 3), 6) == constant(3, Fraction(-1, 6))
    assert quotient(make_spec("D", 5), 20) == constant(5, Fraction(-143, 40))


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
        assert permute_variables(q, perm) == q


def test_power_sum_multiple_detection():
    assert power_sum_multiple(p2(4, Fraction(-3, 7))) == Fraction(-3, 7)
    assert power_sum_multiple(p2(4) + Poly(4, {(2, 0, 0, 0): Fraction(1)})) is None
    assert power_sum_multiple(constant(4, 1)) is None


def test_reduce_mod_relation():
    spec = make_spec("A", 3)
    total = Poly.linear_form(4, (1, 1, 1, 1))
    assert reduce_mod_relation(total, spec).is_zero()
    const = constant(4, Fraction(5, 3))
    assert reduce_mod_relation(const, spec) == const
    with pytest.raises(ValueError):
        reduce_mod_relation(constant(3, 1), make_spec("D", 3))


# -- dominant coefficients ---------------------------------------------------


def test_y_leading_coefficient_matches_quotient():
    spec = make_spec("D", 3)
    assert dominant_coefficients(spec, 6) == {(): Fraction(-1, 6)}
    assert quotient(spec, 6) == constant(3, Fraction(-1, 6))


def test_y_second_degree_coefficient():
    assert dominant_coefficients(make_spec("D", 3), 8) == {(1,): Fraction(-1, 10)}


DOMINANT_CASES = ([("D", 3, d) for d in range(6, 13, 2)]
                  + [("D", 5, d) for d in range(20, 25, 2)]
                  + [("A", 2, d) for d in range(3, 10, 2)]
                  + [("A", 3, d) for d in range(6, 11, 2)])


@pytest.mark.parametrize("family,rank,d", DOMINANT_CASES,
                         ids=[f"{f}{r}_d{d}" for f, r, d in DOMINANT_CASES])
def test_dominant_coefficients_agree_with_fold(cache, family, rank, d):
    # c_lambda is the full fold's coefficient on a^(lambda+delta), or on
    # a^(2(lambda+delta)) for type D, at the quotient's normalization; an
    # absent partition means a zero coefficient
    spec = make_spec(family, rank)
    geometry = fold_parameters(spec)
    shift = d - spec.positive_root_count
    stretch = 2 if geometry.pair_forms else 1
    z = cache.fold(family, rank, d).scale(Fraction(1, 1 << (shift // 2)))
    coeffs = dominant_coefficients(spec, d)
    lams = list(partitions(shift // stretch, geometry.ground))
    assert set(coeffs) <= set(lams) and all(coeffs.values())
    for lam in lams:
        padded = lam + (0,) * (geometry.ground - len(lam))
        mono = tuple(stretch * (part + geometry.ground - 1 - i) for i, part in enumerate(padded))
        assert coefficient(z, mono) == coeffs.get(lam, 0), lam


# past DOMINANT_CASES, where the full fold is slow or out of reach; odd and even ground sets.
# At A_2 d201 and D_3 d400 the largest target reads the last table, q = m; the others stop short
MATCHINGS_CASES = [("A", 6, 21), ("A", 6, 23), ("A", 6, 25), ("A", 7, 28), ("A", 7, 30),
                   ("D", 7, 42), ("D", 7, 44), ("A", 10, 55), ("A", 10, 57), ("A", 2, 201),
                   ("D", 3, 400)]


@pytest.mark.parametrize("family,rank,d", MATCHINGS_CASES,
                         ids=[f"{f}{r}_d{d}" for f, r, d in MATCHINGS_CASES])
def test_dominant_coefficients_equal_the_matchings_loop(family, rank, d):
    # one Pfaffian per target against the signed sum over every matching
    spec = make_spec(family, rank)
    assert dominant_coefficients(spec, d) == dominant_coefficients_by_matchings(spec, d)


def test_pfaffian_matches_the_matching_expansion():
    rng = random.Random("pfaffian")
    for trial in range(600):
        size = 1 + trial % 10
        w = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                sign = rng.choice((-1, 1))
                w[i][j] = rng.choice((0, sign, rng.randrange(-10**12, 10**12),
                                      sign * (10**12 - rng.randrange(5))))
                w[j][i] = -w[i][j]
        if trial % 3 == 0:  # a zero pivot: the leading pair's entry vanishes
            w[0][1 % size] = w[1 % size][0] = 0
        if trial % 7 == 0:  # an all-zero row and column
            zero = rng.randrange(size)
            for k in range(size):
                w[zero][k] = w[k][zero] = 0
        assert _pfaffian([row[:] for row in w]) == pfaffian_by_matchings(w), w


def test_dominant_coefficients_read_only_the_tables_their_targets_reach(monkeypatch):
    # D_21 d420 has the one target lambda = (), mu = 2 (20, 19, .., 0): its edges reach
    # q = (mu_i + mu_j - 2) / 2 <= 38, though m = 200
    asked = []

    def recording(pair_forms, q):
        asked.append(q)
        return _edge_table(pair_forms, q)

    monkeypatch.setattr(taylor, "_edge_table", recording)
    assert list(dominant_coefficients(make_spec("D", 21), 420)) == [()]
    assert max(asked) == 38


def test_quotient_path_visits_no_matching(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the quotient path enumerated matchings")

    monkeypatch.setattr(taylor, "enumerate_matchings", refuse)
    monkeypatch.setattr(matchings, "enumerate_matchings", refuse)
    assert quotient(make_spec("A", 10), 57).degree() == 2
    assert quotient(make_spec("D", 5), 22).degree() == 2
    assert main(["tables", "--which", "all"]) == 0
    assert main(["tables", "--which", "D", "--extended"]) == 0
    assert "D_7" in capsys.readouterr().out


LAPLACIAN_ROWS = ([("A", n) for n in (2, 3, 6, 7, 10, 11, 14, 15)]
                  + [("D", n) for n in range(3, 18, 2)])


@pytest.mark.parametrize("family,rank", LAPLACIAN_ROWS, ids=[f"{f}{r}" for f, r in LAPLACIAN_ROWS])
def test_table_cells_follow_the_laplacian_recursion(family, rank):
    # the Laplacian recursion turns the lead cell c_1 into the second cell,
    # c_2 = N (N - n) / (2 (n + 2N)) c_1 with N = |Phi+| and n the rank; the
    # cells are read as `tables` reads them
    spec = make_spec(family, rank)
    big_n = spec.positive_root_count
    lead = dominant_coefficients(spec, big_n)
    second = dominant_coefficients(spec, big_n + 2)
    if family == "A":
        c2 = (second.get((2,), 0) - second.get((1, 1), 0)) / 2
    else:
        c2 = second.get((1,), 0)
    assert set(lead) == {()} and lead[()] != 0
    assert c2 == Fraction(big_n * (big_n - rank), 2 * (rank + 2 * big_n)) * lead[()]


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


# per type A rank: the lead and second degrees and two deeper ones, and A_6
# d19, below the root count, where dominant_coefficients is empty; the
# extended cells take over 2 s each (A_7 d44: 245,157 quotient terms)
REPORT_ROUTE_CELLS = [("A", rank, d) for rank, degrees in ((2, (3, 5, 21, 41)),
                                                          (3, (6, 8, 20, 40)),
                                                          (6, (19, 21, 23, 25, 33)),
                                                          (7, (28, 30, 34, 40)),
                                                          (10, (55, 57, 59, 61)))
                      for d in degrees]
REPORT_ROUTE_CELLS += [pytest.param("A", 7, 44, marks=pytest.mark.extended),
                       pytest.param("A", 10, 65, marks=pytest.mark.extended)]


@pytest.mark.parametrize("family,rank,d", REPORT_ROUTE_CELLS)
def test_expansion_report_matches_the_expanded_routes(family, rank, d):
    # the report reduces the quotient on its sorted-monomial coefficients;
    # reduce_mod_relation substitutes into the expanded quotient instead
    spec = make_spec(family, rank)
    entry = expansion_report(spec, [d]).entries[0]
    coeffs = dominant_coefficients(spec, d)
    assert entry.quotient == schur_combination(coeffs, spec.ambient_dim)
    assert entry.reduced_quotient == reduce_mod_relation(entry.quotient, spec)
    assert entry.reduced_quotient.arity == spec.ambient_dim
    assert entry.quotient.is_zero() == (not coeffs)


def test_expansion_report_type_d_has_no_reduction():
    report = expansion_report(make_spec("D", 3), [6])
    assert report.entries[0].reduced_quotient is None


def test_quotient_degree_matches_shift():
    spec = make_spec("D", 3)
    for d in (6, 8, 10):
        q = quotient(spec, d)
        assert q.degree() == d - spec.positive_root_count
