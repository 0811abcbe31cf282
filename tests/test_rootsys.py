import math
import random
import re
from fractions import Fraction

import pytest

from coxpizza.matchings import edge_forms, fold_parameters
from coxpizza.polyring import Poly, mul
from coxpizza.rootsys import (ArrangementSpec, OnHyperplane, Root, chamber_sign, make_spec,
                              numeric_roots, parse_spec, positive_roots)
from reference import constant, flip_variable_sign, jacobian_unnormalized, permute_variables, reflect


def test_spec_parsing():
    assert parse_spec("A:6") == ArrangementSpec("A", 6, 7, 21)
    assert parse_spec("D:5") == ArrangementSpec("D", 5, 5, 20)
    assert parse_spec("A1k:3@7") == ArrangementSpec("A1k", 3, 7, 3)
    assert parse_spec("I2:5") == ArrangementSpec("I2", 5, 2, 5)
    assert str(parse_spec("A1k:3@7")) == "A1k:3@7"
    # type A lives on the sum-zero hyperplane, so its balls have the rank's dimension
    specs = [parse_spec(text) for text in ("A:6", "D:5", "A1k:3@7", "I2:5")]
    assert [(spec.sum_zero, spec.ball_dim) for spec in specs] == [(True, 6), (False, 5), (False, 7),
                                                                   (False, 2)]
    for bad in ("B:4", "A:x", "D:5@3", "", "A"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_spec_validation():
    # each family's refusal, and an unknown family's, with its message
    for args, message in ((("B", 3), "unknown family 'B', expected one of ('A', 'D', 'A1k', 'I2')"),
                          (("A", 0), "type A needs rank >= 1"),
                          (("D", 2), "type D needs rank >= 3"),
                          (("A1k", 5, 3), "type A1k needs 1 <= k <= ambient dimension"),
                          (("I2", 1), "type I2 needs m >= 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_spec(*args)


PAIR_SPECS = [("A", n) for n in range(2, 8)] + [("D", n) for n in range(3, 8)]


@pytest.mark.parametrize("family,rank", PAIR_SPECS, ids=[f"{f}{n}" for f, n in PAIR_SPECS])
def test_positive_roots_are_the_edge_forms(family, rank):
    # the roots a pair of coordinates carries, one list: the pairings of positive_roots at a
    # seeded rational point are the forms of the edges (i, j), i < j, in order, and there are
    # |Phi+| of them, as make_spec and fold_parameters count them
    spec = make_spec(family, rank)
    geometry = fold_parameters(spec)
    rng = random.Random(f"pair roots {spec}")
    point = [Fraction(rng.randrange(-999, 1000), rng.randrange(1, 60))
             for _ in range(spec.ambient_dim)]
    pairings = [root.pairing(point) for root in positive_roots(spec)]
    forms = [u for i in range(1, geometry.ground + 1) for j in range(i + 1, geometry.ground + 1)
             for u in edge_forms(geometry, i, j, point)]
    assert pairings == forms
    assert len(pairings) == spec.positive_root_count == geometry.roots


def test_positive_root_counts():
    assert len(positive_roots(make_spec("A", 2))) == 3
    assert len(positive_roots(make_spec("D", 3))) == 6
    assert positive_roots(make_spec("A1k", 2, 3)) == [
        Root((1, 0, 0), 1),
        Root((0, 1, 0), 1),
    ]
    with pytest.raises(ValueError):
        positive_roots(make_spec("I2", 5))


def test_a2_roots_are_coordinate_differences():
    roots = positive_roots(make_spec("A", 2))
    assert [r.coords for r in roots] == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    assert all(r.norm_squared == 2 for r in roots)


def test_d_root_order_minus_before_plus():
    roots = positive_roots(make_spec("D", 3))
    assert roots[0].coords == (1, -1, 0)
    assert roots[1].coords == (1, 1, 0)


def test_jacobian_type_a():
    spec = make_spec("A", 2)
    expected = constant(3, 1)
    for coeffs in ((1, -1, 0), (1, 0, -1), (0, 1, -1)):
        expected = mul(expected, Poly.linear_form(3, coeffs))
    assert jacobian_unnormalized(spec) == expected


def test_jacobian_type_d_is_vandermonde_in_squares():
    spec = make_spec("D", 3)
    expected = constant(3, 1)
    for i in range(3):
        for j in range(i + 1, 3):
            sq_diff = Poly(3, {
                tuple(2 if t == i else 0 for t in range(3)): Fraction(1),
                tuple(2 if t == j else 0 for t in range(3)): Fraction(-1),
            })
            expected = mul(expected, sq_diff)
    assert jacobian_unnormalized(spec) == expected


def test_jacobian_degree_equals_root_count():
    for family, rank in (("A", 3), ("A", 6), ("D", 4), ("D", 5)):
        spec = make_spec(family, rank)
        assert jacobian_unnormalized(spec).degree() == spec.positive_root_count


def test_jacobian_rejects_other_families():
    with pytest.raises(ValueError):
        jacobian_unnormalized(make_spec("A1k", 2, 2))


def test_chamber_sign_base_chamber():
    spec = make_spec("A1k", 2, 3)
    assert chamber_sign(spec, (1, 1, 5)) == 1


def test_chamber_sign_one_separation():
    spec = make_spec("A1k", 2, 3)
    assert chamber_sign(spec, (-1, 1, 0)) == -1


def test_chamber_sign_fully_reversed_a2():
    # a1 < a2 < a3 makes all three pairings negative: sign (-1)^3
    spec = make_spec("A", 2)
    assert chamber_sign(spec, (-2, 1, 4)) == -1


def test_chamber_sign_exact_zero_raises():
    spec = make_spec("A", 2)
    with pytest.raises(OnHyperplane):
        chamber_sign(spec, (1, 1, 0))
    with pytest.raises(OnHyperplane):
        chamber_sign(spec, (1.0, 1.0 + 1e-14, 0.0))


def test_chamber_sign_stable_under_tiny_perturbation():
    rng = random.Random(19)
    for family, rank in (("A", 3), ("D", 4), ("I2", 5)):
        spec = make_spec(family, rank)
        dim = spec.ambient_dim
        for _ in range(20):
            point = [rng.uniform(-1, 1) for _ in range(dim)]
            try:
                base = chamber_sign(spec, point)
            except OnHyperplane:
                continue
            for _ in range(5):
                bumped = [x + rng.uniform(-1e-9, 1e-9) for x in point]
                assert chamber_sign(spec, bumped) == base


def test_numeric_roots_are_unit_vectors():
    for family, rank in (("A", 2), ("D", 4), ("A1k", 3), ("I2", 7)):
        spec = make_spec(family, rank)
        for root in numeric_roots(spec):
            assert math.isclose(sum(c * c for c in root), 1.0, abs_tol=1e-15)


def test_i2_roots_are_distinct_lines():
    for m in (2, 5, 7):
        roots = numeric_roots(make_spec("I2", m))
        assert len(roots) == m
        for i in range(m):
            for j in range(i + 1, m):
                cross = roots[i][0] * roots[j][1] - roots[i][1] * roots[j][0]
                assert abs(cross) > 1e-9  # not the same line


def test_i2_2_is_orthogonal_pair():
    a, b = numeric_roots(make_spec("I2", 2))
    assert abs(a[0] * b[0] + a[1] * b[1]) < 1e-15


def test_jacobian_skew_and_flip_symmetries():
    # type A: skew under every transposition of the n+1 variables
    jac_a = jacobian_unnormalized(make_spec("A", 3))
    for i in range(4):
        for j in range(i + 1, 4):
            perm = list(range(4))
            perm[i], perm[j] = perm[j], perm[i]
            assert permute_variables(jac_a, perm) == -jac_a
    # type D: skew under transpositions, invariant under sign flips
    jac_d = jacobian_unnormalized(make_spec("D", 3))
    perm = [1, 0, 2]
    assert permute_variables(jac_d, perm) == -jac_d
    for i in range(3):
        assert flip_variable_sign(jac_d, i) == jac_d


def test_reflection_closure():
    # reflecting any positive root in any root's hyperplane stays in the system
    for family, rank in (("A", 3), ("D", 4)):
        spec = make_spec(family, rank)
        roots = positive_roots(spec)
        signed = {r.coords for r in roots} | {tuple(-c for c in r.coords) for r in roots}
        for alpha in roots:
            for beta in roots:
                image = reflect(alpha.coords, beta)
                assert all(f.denominator == 1 for f in image)
                assert tuple(int(f) for f in image) in signed
