import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from coxpizza.polyring import (NonDivisible, Poly, _distinct_permutations, add,
                               divide_by_vandermonde, exact_divide_linear, monomial_terms, mul,
                               normalize_partition, partitions, reduce_symmetric_mod_sum,
                               schur_combination, spread_monomials, substitute_linear)
from reference import (constant, evaluate, is_skew_under_transposition, power, schur_bialternant,
                       vandermonde)


def P(arity, terms):
    return Poly(arity, {tuple(m): Fraction(*c) if isinstance(c, tuple) else Fraction(c)
                        for m, c in terms.items()})


def x(arity, i):
    return Poly.linear_form(arity, [int(j == i) for j in range(arity)])


def random_poly(rng, arity, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(arity))
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(arity, terms)


# -- add / mul ---------------------------------------------------------------


def test_add_cancels_to_zero():
    assert (x(2, 0) + x(2, 0).scale(-1)).is_zero()


def test_add_partial_cancel():
    p = x(2, 0) - x(2, 1)
    assert p + x(2, 1) == x(2, 0)


def test_add_rational_coefficients():
    p = P(1, {(2,): (1, 2)}) + P(1, {(2,): (1, 3)})
    assert p == P(1, {(2,): (5, 6)})


def test_mul_difference_of_squares():
    lhs = mul(x(2, 0) - x(2, 1), x(2, 0) + x(2, 1))
    assert lhs == P(2, {(2, 0): 1, (0, 2): -1})


def test_mul_by_zero():
    assert mul(random_poly(random.Random(1), 3), Poly.zero(3)).is_zero()


def test_mul_square_binomial():
    sq = mul(x(2, 0) + x(2, 1), x(2, 0) + x(2, 1))
    assert sq == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        add(Poly.zero(2), Poly.zero(3))


def test_evaluate_exact_at_exact_points_float_elsewhere():
    p = Poly(2, {(2, 0): Fraction(1, 3), (0, 2): Fraction(-1, 3), (1, 0): Fraction(2)})
    # at 2^53 + 1 a float evaluation rounds; an exact one keeps every unit
    x, y = 2**53 + 1, Fraction(2**53, 3)
    value = evaluate(p, [x, y])
    assert isinstance(value, Fraction)
    assert value == Fraction(x * x, 3) - y * y / 3 + 2 * x
    floats = evaluate(p, [0.5, 0.25])
    assert isinstance(floats, float)
    assert floats == float(Fraction(1, 3)) * 0.5**2 + float(Fraction(-1, 3)) * 0.25**2 + 2.0 * 0.5


def test_ring_laws_on_random_triples():
    rng = random.Random(7)
    for _ in range(25):
        p, q, r = (random_poly(rng, 3) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert mul(p, q) == mul(q, p)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, q + r) == mul(p, q) + mul(p, r)


# -- substitution ------------------------------------------------------------


def test_substitute_kills_symmetric_sum():
    p = x(3, 0) + x(3, 1) + x(3, 2)
    form = Poly.linear_form(3, (-1, -1, 0))
    assert substitute_linear(p, 2, form).is_zero()


def test_substitute_zero():
    p = mul(x(2, 0), x(2, 1))
    assert substitute_linear(p, 1, Poly.zero(2)).is_zero()


def test_substitute_equal_variables_kills_difference_factor():
    rng = random.Random(3)
    q = random_poly(rng, 2)
    p = mul(x(2, 0) - x(2, 1), q)
    assert substitute_linear(p, 1, x(2, 0)).is_zero()


def test_substitute_identity():
    rng = random.Random(11)
    for _ in range(10):
        p = random_poly(rng, 3)
        for i in range(3):
            assert substitute_linear(p, i, x(3, i)) == p


def expand_substitution(p, i, form):
    # term by term: coeff * (monomial without x_i) * form^e
    direct = Poly.zero(p.arity)
    for mono, coeff in p.terms.items():
        rest = tuple(0 if j == i else e for j, e in enumerate(mono))
        direct = direct + mul(Poly(p.arity, {rest: coeff}), power(form, mono[i]))
    return direct


def test_substitute_matches_direct_expansion():
    # forms that carry a constant term, fractional coefficients and x_i itself
    rng = random.Random(29)
    forms = [P(3, {(0, 0, 0): (2, 3), (1, 0, 0): (-1, 2), (0, 0, 1): 3}),
             P(3, {(0, 0, 0): -1, (0, 1, 0): (5, 7)}),
             P(3, {(1, 0, 0): (1, 3), (0, 1, 0): -2, (0, 0, 1): (3, 4)})]
    for _ in range(8):
        p = random_poly(rng, 3, max_degree=6, max_terms=8)
        for i in range(3):
            for form in forms:
                assert substitute_linear(p, i, form) == expand_substitution(p, i, form)


def assert_canonical(poly):
    # the integer kernels hand back Fractions: never an int, a zero or an
    # unreduced numerator/denominator pair
    for mono, c in poly.terms.items():
        assert type(c) is Fraction and c != 0, (mono, c)
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1, (mono, c)


COPRIME_DENS = (10007, 10009, 2**31 - 1, 3**20, 1)


def test_substitute_with_large_coprime_denominators():
    # p's coefficients over large coprime denominators, forms over their own
    # denominators (and with a constant term)
    rng = random.Random(53)
    forms = [P(3, {(1, 0, 0): (-1, 3), (0, 1, 0): (2, 5), (0, 0, 0): (7, 11)}),
             P(3, {(1, 0, 0): -1, (0, 1, 0): -1}),
             P(3, {(0, 0, 1): (1, 9973)})]
    for dens in [COPRIME_DENS] * 5 + [(1,)]:
        p = Poly(3, {tuple(rng.randint(0, 7) for _ in range(3)):
                     Fraction(rng.randint(-10**6, 10**6) or 1, rng.choice(dens))
                     for _ in range(10)})
        for i in range(3):
            for form in forms:
                got = substitute_linear(p, i, form)
                assert got == expand_substitution(p, i, form)
                assert_canonical(got)


def test_substitute_rejects_quadratic_form():
    with pytest.raises(ValueError):
        substitute_linear(x(2, 0), 0, P(2, {(2, 0): 1}))


# -- exact linear division ---------------------------------------------------


def test_divide_difference_of_squares():
    p = P(2, {(2, 0): 1, (0, 2): -1})
    q = exact_divide_linear(p, x(2, 0) - x(2, 1))
    assert q == x(2, 0) + x(2, 1)


def test_divide_zero():
    assert exact_divide_linear(Poly.zero(2), x(2, 0) - x(2, 1)).is_zero()


def test_divide_binomial_cube():
    diff = x(2, 0) - x(2, 1)
    cube = mul(mul(diff, diff), diff)
    assert exact_divide_linear(cube, diff) == mul(diff, diff)


def test_divide_reports_remainder():
    p = P(2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(NonDivisible):
        exact_divide_linear(p, x(2, 0) - x(2, 1))


def test_divide_rejects_nonlinear_divisor():
    with pytest.raises(ValueError):
        exact_divide_linear(x(2, 0), P(2, {(2, 0): 1}))
    with pytest.raises(ValueError):
        exact_divide_linear(x(2, 0), constant(2, 1) + x(2, 0))


def test_divide_roundtrip_random():
    rng = random.Random(23)
    for _ in range(30):
        arity = rng.randint(2, 4)
        p = random_poly(rng, arity)
        coeffs = [rng.randint(-3, 3) for _ in range(arity)]
        if not any(coeffs):
            coeffs[0] = 1
        form = Poly.linear_form(arity, coeffs)
        assert exact_divide_linear(mul(p, form), form) == p


def test_vandermonde_self_division():
    v = vandermonde(3)
    assert divide_by_vandermonde(v, range(3)) == constant(3, 1)


def test_vandermonde_squared_self_division():
    v = vandermonde(3, squared=True)
    assert divide_by_vandermonde(v, range(3), squared=True) == constant(3, 1)


def test_vandermonde_roundtrip_random():
    rng = random.Random(5)
    for squared in (False, True):
        p = random_poly(rng, 3, max_degree=2)
        v = vandermonde(3, squared=squared)
        assert divide_by_vandermonde(mul(p, v), range(3), squared=squared) == p


# -- Schur polynomials vs the tableau oracle ---------------------------------


def ssyt_schur(lam, nvars):
    """Independent Schur oracle: sum of content monomials over semistandard
    tableaux of shape lam with entries in 1..nvars (rows weakly increasing,
    columns strictly increasing)."""
    lam = [p for p in lam if p > 0]
    if not lam:
        return constant(nvars, 1)
    rows = len(lam)

    terms = {}

    def fill(row, col, tableau):
        if row == rows:
            content = [0] * nvars
            for r in tableau:
                for entry in r:
                    content[entry - 1] += 1
            mono = tuple(content)
            terms[mono] = terms.get(mono, 0) + 1
            return
        if col == lam[row]:
            fill(row + 1, 0, tableau + [[]])
            return
        lo = tableau[row][col - 1] if col > 0 else 1
        if row > 0 and col < lam[row - 1]:
            lo = max(lo, tableau[row - 1][col] + 1)
        for entry in range(lo, nvars + 1):
            tableau[row].append(entry)
            fill(row, col + 1, tableau)
            tableau[row].pop()

    fill(0, 0, [[]])
    return Poly(nvars, {m: Fraction(c) for m, c in terms.items()})


def test_schur_single_box():
    assert schur_bialternant((1,), 2) == x(2, 0) + x(2, 1)


def test_schur_empty_partition():
    assert schur_bialternant((0,), 3) == constant(3, 1)


def test_schur_hook_21():
    # enumerated by hand: tableaux 11/2 and 12/2
    assert schur_bialternant((2, 1), 2) == P(2, {(2, 1): 1, (1, 2): 1})


def test_schur_matches_tableau_oracle_and_positivity():
    for nvars in range(1, 5):
        for size in range(0, 9):
            for lam in partitions(size, nvars) if size else [()]:
                got = schur_bialternant(lam, nvars)
                assert got == ssyt_schur(lam, nvars), (lam, nvars)
                assert all(c > 0 for c in got.terms.values()), (lam, nvars)


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_schur_combination_matches_bialternant(squared):
    factor = 2 if squared else 1
    for nvars in range(1, 6):
        for size in range(5):
            for lam in partitions(size, nvars):
                expected = schur_bialternant(lam, nvars)
                expected = Poly(nvars, {tuple(factor * e for e in mono): c
                                        for mono, c in expected.terms.items()})
                got = schur_combination({lam: Fraction(1)}, nvars, squared=squared)
                assert got == expected, (lam, nvars)


def test_schur_combination_is_linear():
    coeffs = {(3,): Fraction(2, 3), (2, 1): Fraction(-5), (1, 1, 1): Fraction(7, 2)}
    expected = Poly.zero(3)
    for lam, c in coeffs.items():
        expected = expected + schur_bialternant(lam, 3).scale(c)
    assert schur_combination(coeffs, 3) == expected
    assert schur_combination({}, 3).is_zero()
    with pytest.raises(ValueError):
        schur_combination({(1, 2): Fraction(1)}, 3)
    with pytest.raises(ValueError):
        schur_combination({(1, 1, 1): Fraction(1)}, 2)


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_schur_combination_with_coprime_denominators(squared):
    # random c_lambda over coprime denominators against sum c_lambda s_lambda
    rng = random.Random(61)
    factor = 2 if squared else 1
    for nvars in range(1, 6):
        shapes = [lam for size in range(6) for lam in partitions(size, nvars)]
        for dens in (COPRIME_DENS, COPRIME_DENS, (1,)):
            coeffs = {lam: Fraction(rng.randint(-99, 99) or 1, rng.choice(dens))
                      for lam in rng.sample(shapes, min(len(shapes), 6))}
            expected = Poly.zero(nvars)
            for lam, c in coeffs.items():
                expected = expected + schur_bialternant(lam, nvars).scale(c)
            expected = Poly(nvars, {tuple(factor * e for e in mono): c
                                    for mono, c in expected.terms.items()})
            got = schur_combination(coeffs, nvars, squared=squared)
            assert got == expected, (nvars, coeffs)
            assert_canonical(got)


def test_schur_rejects_too_many_parts():
    with pytest.raises(ValueError):
        schur_bialternant((1, 1, 1), 2)


@pytest.mark.parametrize("values", [(), (0,), (0, 0, 0), (3, 1, 1, 0), (2, 2, 1, 1, 0, 0)])
def test_distinct_permutations_lists_each_rearrangement_once(values):
    perms = _distinct_permutations(values)
    count = math.factorial(len(values))
    for mult in Counter(values).values():
        count //= math.factorial(mult)
    assert len(perms) == count == len(set(perms))
    assert set(perms) == set(itertools.permutations(values))
    assert _distinct_permutations(values, (0, 5)) == [p + (0, 5) for p in perms]


def test_monomial_terms_list_the_spread_in_canonical_order():
    # mixed total degrees, both exponent factors, and keys one part short
    # of the arity (the type A representative's layout)
    rng = random.Random(29)
    for nvars in range(1, 5):
        for short in (0, 1) if nvars > 1 else (0,):
            parts = nvars - short
            shapes = [lam + (0,) * (parts - len(lam)) for size in range(6)
                      for lam in partitions(size, parts)]
            for factor in (1, 2):
                q = {nu: rng.randint(-99, 99) or 1 for nu in rng.sample(shapes, min(len(shapes), 7))}
                den = rng.choice(COPRIME_DENS)
                expected = spread_monomials(q, den, nvars, factor).sorted_terms()
                assert monomial_terms(q, den, nvars, factor) == expected, (nvars, short, q)
    assert monomial_terms({}, 1, 3) == []


def test_symmetric_reduction_matches_the_substitution():
    # sum q_nu m_nu modulo x_1 + ... + x_g = 0 on the monomial symmetric
    # basis, against substituting x_g = -(x_1 + ... + x_(g-1)) in the expansion
    rng = random.Random(23)
    for nvars in range(2, 6):
        shapes = [lam + (0,) * (nvars - len(lam)) for size in range(7)
                  for lam in partitions(size, nvars)]
        for _ in range(4):
            q = {nu: rng.randint(-99, 99) or 1 for nu in rng.sample(shapes, min(len(shapes), 8))}
            den = rng.choice(COPRIME_DENS)
            form = Poly.linear_form(nvars, [-1] * (nvars - 1) + [0])
            expected = substitute_linear(spread_monomials(q, den, nvars), nvars - 1, form)
            got = spread_monomials(reduce_symmetric_mod_sum(q), den, nvars)
            assert got == expected, (nvars, q)
            assert_canonical(got)
    assert reduce_symmetric_mod_sum({}) == {}
    # x_1 + x_2 + x_3 = m_(1,0,0) is the relation itself
    assert reduce_symmetric_mod_sum({(1, 0, 0): 3}) == {}


# -- misc --------------------------------------------------------------------


def test_skew_detection():
    assert is_skew_under_transposition(x(2, 0) - x(2, 1), 0, 1)
    assert not is_skew_under_transposition(x(2, 0) + x(2, 1), 0, 1)
    v = vandermonde(3)
    for i, j in itertools.combinations(range(3), 2):
        assert is_skew_under_transposition(v, i, j)


def test_partition_normalization():
    assert normalize_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(ValueError):
        normalize_partition((1, 2))


def test_partitions_enumeration():
    assert sorted(partitions(4, 2)) == [(2, 2), (3, 1), (4,)]
    assert list(partitions(0, 3)) == [()]


def test_canonical_text_rendering():
    p = P(2, {(2, 0): (1, 2), (0, 1): -3, (1, 1): 1})
    assert p.to_text() == "1/2*a1^2 + a1*a2 - 3*a2"
    assert Poly.zero(2).to_text() == "0"


def test_sorted_terms_descend_in_graded_lex_order():
    rng = random.Random(5)
    for arity in range(1, 5):
        p = random_poly(rng, arity, max_degree=4, max_terms=12)
        order = sorted(p.terms, key=lambda m: (sum(m), m), reverse=True)
        assert p.sorted_terms() == [(m, p.terms[m]) for m in order]


def test_grlex_leading_term():
    p = P(2, {(2, 0): 1, (1, 1): 5, (0, 1): 2})
    assert p.leading() == ((2, 0), Fraction(1))
