"""Acceptance suite: one test (or parametrized family) per criterion, each at
its stated tolerance.  The conftest hook prints one PASS/FAIL line per
criterion at the end of the run.

Heavy folds are computed once per session (threads=1) and shared; the
determinism criterion compares the reports built from them with the
quotients computed at other thread counts.  The full folds of the rank-7
type A cells take minutes, so their full-fold cells run under
`-m extended`; by default every table cell, those included, is checked by
exact evaluation of the fold at seeded integer points
(test_criterion_6_point_identities).
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from coxpizza.conjectures import (check_sign_A, check_sign_D, check_t_positivity,
                                  check_y_negativity, schur_reconstruct)
from coxpizza.matchings import Matching, crossings, sign, sign_sum
from coxpizza.oracle import (BallSpec, auto_degree_cap, fold_at, mc_pizza,
                             random_interior_centers, sum_over_2structures)
from coxpizza.polyring import Poly, mul, vandermonde
from coxpizza.rootsys import chamber_sign, make_spec, positive_roots
from coxpizza.taylor import (expansion_report, fold_parameters, quotient,
                             reduce_mod_relation, z_poly)

SEED = 31415

TABLE_A_CELLS = [
    # (rank, degree, kind, expected)
    (2, 3, "const", Fraction(1, 2)),
    (2, 5, "p2", Fraction(3, 2**5)),
    (3, 6, "const", Fraction(-1, 2 * 3)),
    (3, 8, "p2", Fraction(-1, 2 * 5)),
    (6, 21, "const", Fraction(-3 * 7 * 11 * 13, 2**8)),
    (6, 23, "p2", Fraction(3**2 * 5**2 * 7 * 11 * 13, 2**13)),
    (7, 28, "const", Fraction(3 * 11 * 13 * 17 * 19, 2**8)),
    (7, 30, "p2", Fraction(7 * 11 * 13 * 17 * 19, 2**7)),
]

TABLE_D_CELLS = [
    (3, 6, "const", Fraction(-1, 2 * 3)),
    (3, 8, "p2", Fraction(-1, 2 * 5)),
    (5, 20, "const", Fraction(-11 * 13, 2**3 * 5)),
    (5, 22, "p2", Fraction(-11 * 13, 2**2 * 3)),
]

TABLE_D_EXTENDED_CELLS = [
    (7, 42, "const", Fraction(-11 * 13 * 17 * 19 * 23 * 29 * 31, 2**4 * 3 * 7)),
    (7, 44, "p2", Fraction(-5 * 11 * 17 * 19 * 23 * 29 * 31, 2**4)),
]

ALL_TABLE_KEYS = [("A", rank, d) for rank, d, _, _ in TABLE_A_CELLS] + \
                 [("D", rank, d) for rank, d, _, _ in TABLE_D_CELLS]

# rows whose full folds run only under -m extended (minutes each)
EXTENDED_FOLD_ROWS = {("A", 7), ("D", 7)}


def _fold_param(family, rank, values, id):
    """pytest param for a cell (or row) that reads the full fold of family
    and rank; marked extended for EXTENDED_FOLD_ROWS."""
    marks = [pytest.mark.extended] if (family, rank) in EXTENDED_FOLD_ROWS else []
    return pytest.param(*values, id=id, marks=marks)


def p2(arity, c=1):
    return Poly(arity, {tuple(2 if i == j else 0 for i in range(arity)): Fraction(c)
                        for j in range(arity)})


def assert_cell(cache, family, rank, d, kind, expected):
    spec = make_spec(family, rank)
    q = cache.quotient(family, rank, d)
    if kind == "const":
        assert q == Poly.constant(spec.ambient_dim, expected), (
            f"{family}_{rank} degree {d}: computed {q.to_text()}, expected constant {expected}"
        )
    else:
        target = p2(spec.ambient_dim, expected)
        if family == "A":
            diff = reduce_mod_relation(q - target, spec)
            assert diff.is_zero(), (
                f"{family}_{rank} degree {d}: computed quotient is not {expected} * p2 "
                f"modulo the sum relation (residual {diff.to_text()})"
            )
        else:
            assert q == target, (
                f"{family}_{rank} degree {d}: computed {q.to_text()}, expected {expected} * p2"
            )


@pytest.mark.acceptance(1, "type A table reproduction, exact")
@pytest.mark.parametrize("rank,d,kind,expected",
                         [_fold_param("A", r, (r, d, kind, expected), f"A{r}_d{d}")
                          for r, d, kind, expected in TABLE_A_CELLS])
def test_criterion_1_table_a(cache, rank, d, kind, expected):
    assert_cell(cache, "A", rank, d, kind, expected)


@pytest.mark.acceptance(2, "type D table reproduction, exact")
@pytest.mark.parametrize("rank,d,kind,expected",
                         TABLE_D_CELLS, ids=[f"D{r}_d{d}" for r, d, _, _ in TABLE_D_CELLS])
def test_criterion_2_table_d(cache, rank, d, kind, expected):
    assert_cell(cache, "D", rank, d, kind, expected)


@pytest.mark.extended
@pytest.mark.parametrize("rank,d,kind,expected", TABLE_D_EXTENDED_CELLS,
                         ids=[f"D{r}_d{d}" for r, d, _, _ in TABLE_D_EXTENDED_CELLS])
def test_criterion_2_table_d_extended(cache, rank, d, kind, expected):
    assert_cell(cache, "D", rank, d, kind, expected)


@pytest.mark.acceptance(3, "matching sign sum equals 1 for sizes 1..13, under 5 s")
def test_criterion_3_sign_sum():
    start = time.perf_counter()
    for r in range(1, 14):
        assert sign_sum(r) == 1, r
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(4, "crossing count 3 and sign +1 for the reference matching")
def test_criterion_4_reference_matching():
    m = Matching(((1, 5), (3, 8), (4, 6), (7, 9)), 2, 9)
    assert crossings(m) == 3
    assert sign(m) == 1


@pytest.mark.acceptance(5, "fold vanishes exactly two degrees below the root count")
def test_criterion_5_leading_degree_vanishing():
    for family, rank in (("A", 2), ("A", 3), ("D", 3), ("D", 5)):
        spec = make_spec(family, rank)
        assert z_poly(spec, spec.positive_root_count - 2).is_zero(), (family, rank)


@pytest.mark.acceptance(6, "divisibility, skew-symmetry and monomial audits, exact")
@pytest.mark.parametrize("family,rank,d", [_fold_param(f, r, (f, r, d), f"{f}{r}_d{d}")
                                           for f, r, d in ALL_TABLE_KEYS])
def test_criterion_6_divisibility_and_skew(cache, family, rank, d):
    spec = make_spec(family, rank)
    z = cache.fold(family, rank, d)
    q = cache.quotient(family, rank, d)

    # exact division: quotient times the Vandermonde recovers the fold
    vand = vandermonde(spec.ambient_dim, squared=(family == "D"))
    shift = (d - spec.positive_root_count) // 2
    recovered = mul(q, vand).scale(1 << shift)
    assert recovered == z

    rng = random.Random(SEED + rank + d)
    for _ in range(3):
        i, j = rng.sample(range(z.arity), 2)
        perm = list(range(z.arity))
        perm[i], perm[j] = perm[j], perm[i]
        assert z.permute_variables(perm) == -z, (family, rank, d, i, j)

    if family == "D":
        for i in range(z.arity):
            assert z.flip_variable_sign(i) == z
        for mono in z.terms:
            assert all(e % 2 == 0 for e in mono), (rank, d, mono)
            assert any(e == 0 for e in mono), (rank, d, mono)
            assert len(set(mono)) == len(mono), (rank, d, mono)


POINT_CELLS = ([("A", rank, d) for rank, d, _, _ in TABLE_A_CELLS]
               + [("D", rank, d) for rank, d, _, _ in TABLE_D_CELLS + TABLE_D_EXTENDED_CELLS])


def exact_value(poly, point):
    """The exact value of a polynomial at an integer point."""
    powers = [[1] for _ in point]
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for x, row, e in zip(point, powers, mono):
            while len(row) <= e:
                row.append(row[-1] * x)
            value *= row[e]
        total += value
    return total


@pytest.mark.acceptance(6, "divisibility, skew-symmetry and monomial audits, exact")
@pytest.mark.parametrize("family,rank,d", POINT_CELLS, ids=[f"{f}{r}_d{d}" for f, r, d in POINT_CELLS])
def test_criterion_6_point_identities(cache, family, rank, d):
    """Every table cell at three seeded 32-bit integer points a, by exact
    evaluation of the fold (fold_at), without expanding it:

      * Z_d(a) = 2^shift Q(a) J(a), with Q the computed quotient and J the
        product of the positive roots' linear forms at a;
      * Z_d(sigma a) = -Z_d(a) for a seeded transposition sigma, and for
        type D Z_d is even in a seeded variable;
      * where the suite expands the fold anyway, fold_at equals its exact
        value at a.

    A wrong polynomial identity of degree d survives a uniform point of
    S^n with probability at most d / |S| (Schwartz-Zippel), here d / 2^32."""
    spec = make_spec(family, rank)
    q = quotient(spec, d)
    roots = positive_roots(spec)
    shift = (d - spec.positive_root_count) // 2
    fold = None if (family, rank) in EXTENDED_FOLD_ROWS else cache.fold(family, rank, d)
    rng = random.Random(SEED + 100 * rank + d)
    for _ in range(3):
        point = [rng.randrange(-2**31, 2**31) for _ in range(spec.ambient_dim)]
        z = fold_at(spec, point, d)[d]
        jacobian = math.prod(root.pairing(point) for root in roots)
        assert jacobian != 0 and z != 0, (family, rank, d, point)
        assert z == (1 << shift) * exact_value(q, point) * jacobian, (family, rank, d, point)

        i, j = rng.sample(range(spec.ambient_dim), 2)
        swapped = list(point)
        swapped[i], swapped[j] = point[j], point[i]
        assert fold_at(spec, swapped, d)[d] == -z, (family, rank, d, point, i, j)
        if family == "D":
            flipped = list(point)
            flipped[i] = -point[i]
            assert fold_at(spec, flipped, d)[d] == z, (family, rank, d, point, i)
        if fold is not None:
            assert exact_value(fold, point) == z, (family, rank, d, point)


@pytest.mark.acceptance(7, "Monte Carlo and series fold agree within 3 sigma plus tail")
def test_criterion_7_oracle_cross_validation():
    start = time.perf_counter()
    for family, rank in (("A", 2), ("A", 3), ("D", 3)):
        spec = make_spec(family, rank)
        k = fold_parameters(spec).k
        centers = random_interior_centers(spec, 5, SEED, radius=0.4)
        for idx, center in enumerate(centers):
            ball = BallSpec(center, 1.0)
            smax = k * max(abs(x) for x in center) ** 2 * 2  # coarse upper bound
            cap = auto_degree_cap(rank, k, min(smax, 0.9), 1e-6)
            value, tail = sum_over_2structures(spec, ball, cap)
            assert tail < 1e-6
            est = mc_pizza(spec, ball, 1_000_000, SEED + idx)
            assert abs(est.value - value) <= 3 * est.std_error + tail, (spec, center)
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(8, "known vanishing and dihedral sign laws by Monte Carlo")
def test_criterion_8_known_vanishing_and_dihedral_signs():
    # same-parity regime: the quantity vanishes
    spec = make_spec("A", 4)
    for idx, center in enumerate(random_interior_centers(spec, 3, SEED)):
        est = mc_pizza(spec, BallSpec(center, 1.0), 1_000_000, SEED + idx)
        assert abs(est.value) <= 3 * est.std_error, center

    # odd dihedral arrangements: sign given by the separation parity rule;
    # centers sit well inside five different wedges, near the ball boundary
    # where the signal is strongest
    import numpy as np

    for m in (5, 7):
        spec = make_spec("I2", m)
        rng = np.random.default_rng([SEED, m])
        prefactor = -1 if ((m - 3) // 2) % 2 else 1
        for idx in range(5):
            mid = math.pi / 2 - math.pi / (2 * m) + idx * math.pi / m
            angle = mid + (rng.random() - 0.5) * 0.4 * math.pi / m
            rho = 0.87 + 0.09 * rng.random()
            center = (rho * math.cos(angle), rho * math.sin(angle))
            t = chamber_sign(spec, center)
            est = mc_pizza(spec, BallSpec(center, 1.0), 8_000_000, SEED + 100 * m + idx)
            assert abs(est.value) > 3 * est.std_error, (m, center, est)
            assert (est.value > 0) == (prefactor * t > 0), (m, center, est)


@pytest.mark.acceptance(9, "conjecture checkers consistent in their verified ranges")
def test_criterion_9_conjecture_consistency():
    for n in (2, 3):
        spec = make_spec("A", n)
        report = check_sign_A(n, random_interior_centers(spec, 5, SEED, radius=0.4))
        assert report.verdict == "consistent", report.to_json_dict()
    for n in (3, 5):
        spec = make_spec("D", n)
        report = check_sign_D(n, random_interior_centers(spec, 5, SEED, radius=0.4))
        assert report.verdict == "consistent", report.to_json_dict()

    assert check_y_negativity(3, 16).verdict == "consistent"
    assert check_y_negativity(5, 24).verdict == "consistent"

    assert schur_reconstruct(3, 6).verdict == "consistent"
    assert schur_reconstruct(3, 8).verdict == "consistent"
    assert schur_reconstruct(5, 20).verdict == "consistent"

    assert check_t_positivity(40).verdict == "consistent"


@pytest.mark.acceptance(10, "table outputs byte-identical across thread counts 1, 4, 8")
@pytest.mark.parametrize("family,rank", [_fold_param(f, r, (f, r), f"{f}{r}")
                                         for f, r in (("A", 2), ("A", 3), ("A", 6), ("A", 7),
                                                      ("D", 3), ("D", 5))])
def test_criterion_10_thread_determinism(cache, family, rank):
    spec = make_spec(family, rank)
    phi = spec.positive_root_count
    reference = json.dumps(cache.report(family, rank).to_json_dict(), sort_keys=True)
    for threads in (4, 8):
        report = expansion_report(spec, (phi, phi + 2), threads=threads)
        assert json.dumps(report.to_json_dict(), sort_keys=True) == reference, (family, rank, threads)
