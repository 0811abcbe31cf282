import pytest

from coxpizza.matchings import (Matching, count_matchings, crossings,
                                enumerate_matchings, fold_parameters, sign, sign_sum)
from coxpizza.rootsys import Root, make_spec
from reference import two_structure


def test_count_small():
    assert len(list(enumerate_matchings(4))) == 3


def test_count_nine_by_enumeration():
    assert len(list(enumerate_matchings(9))) == 945


def test_count_eleven():
    assert count_matchings(11) == 10395
    assert len(list(enumerate_matchings(11))) == 10395


def test_counts_match_double_factorial_up_to_13():
    expected = {1: 1, 2: 1, 3: 3, 4: 3, 5: 15, 6: 15, 7: 105, 8: 105,
                9: 945, 10: 945, 11: 10395, 12: 10395, 13: 135135}
    for r, count in expected.items():
        assert count_matchings(r) == count
    for r in range(1, 11):
        assert len(list(enumerate_matchings(r))) == expected[r]


def test_no_duplicates():
    for r in range(1, 10):
        rendered = [m.render() for m in enumerate_matchings(r)]
        assert len(set(rendered)) == len(rendered)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(((1, 2),), None, 3)  # odd ground set needs an isolated vertex
    with pytest.raises(ValueError):
        Matching(((1, 2), (2, 3)), None, 4)  # overlapping edges
    with pytest.raises(ValueError):
        Matching(((2, 1),), None, 2)  # edges must be increasing pairs


def test_crossing_free_configurations():
    assert crossings(Matching(((1, 2), (3, 4)), None, 4)) == 0
    assert crossings(Matching(((1, 4), (2, 3)), None, 4)) == 0  # nested


def test_single_crossing():
    assert crossings(Matching(((1, 3), (2, 4)), None, 4)) == 1


def test_reference_witness_crossings_and_sign():
    m = Matching(((1, 5), (3, 8), (4, 6), (7, 9)), 2, 9)
    assert crossings(m) == 3
    assert sign(m) == 1  # (-1)^(2-1) * (-1)^3


def test_sign_even_ground():
    assert sign(Matching(((1, 2),), None, 2)) == 1


def test_sign_odd_ground_with_crossingless_edge():
    assert sign(Matching(((1, 3),), 2, 3)) == -1


def test_sign_sum_r3_by_hand():
    signs = [sign(m) for m in enumerate_matchings(3)]
    assert sorted(signs) == [-1, 1, 1]
    assert sum(signs) == 1


def test_sign_sum_is_one():
    for r in range(1, 12):
        assert sign_sum(r) == 1


def test_stream_order_deterministic():
    first = [m.render() for m in enumerate_matchings(7)]
    second = [m.render() for m in enumerate_matchings(7)]
    assert first == second


def test_two_structure_type_a():
    spec = make_spec("A", 3)
    m = Matching(((1, 2), (3, 4)), None, 4)
    phi = two_structure(spec, m)
    assert phi.positive_roots == (Root((1, -1, 0, 0), 2), Root((0, 0, 1, -1), 2))


def test_two_structure_type_d_pair():
    spec = make_spec("D", 3)
    m = Matching(((1, 2),), 3, 3)
    phi = two_structure(spec, m)
    assert phi.positive_roots == (Root((1, -1, 0), 2), Root((1, 1, 0), 2))


def test_two_structure_root_counts():
    a7 = make_spec("A", 7)
    for m in enumerate_matchings(8):
        assert len(two_structure(a7, m).positive_roots) == 4
        break
    d5 = make_spec("D", 5)
    for m in enumerate_matchings(5):
        assert len(two_structure(d5, m).positive_roots) == 4


def test_k_is_the_root_count_of_every_two_structure():
    # D_n of even rank: n/2 edges of two forms each, n forms, not n - 1
    specs = [make_spec("A", r) for r in range(2, 8)] + [make_spec("D", r) for r in range(3, 9)]
    for spec in specs:
        k = fold_parameters(spec).k
        for m in enumerate_matchings(spec.ambient_dim):
            assert len(two_structure(spec, m).positive_roots) == k, (str(spec), m.render())


def test_fold_parameters_follow_from_the_ground_set():
    specs = [make_spec("A", r) for r in range(1, 26)] + [make_spec("D", r) for r in range(3, 26)]
    for spec in specs:
        geometry = fold_parameters(spec)
        assert geometry.ground == spec.ambient_dim and geometry.nslots == geometry.ground // 2
        assert geometry.order % 2 == 0 and 0 <= geometry.order - geometry.ground <= 1
        assert geometry.roots == spec.positive_root_count, str(spec)


def test_two_structure_orthogonality():
    for spec, ground in ((make_spec("A", 6), 7), (make_spec("D", 5), 5)):
        for m in enumerate_matchings(ground):
            roots = two_structure(spec, m).positive_roots
            for i in range(len(roots)):
                for j in range(i + 1, len(roots)):
                    dot = sum(a * b for a, b in zip(roots[i].coords, roots[j].coords))
                    assert dot == 0


def test_two_structure_ground_size_mismatch():
    with pytest.raises(ValueError):
        two_structure(make_spec("A", 3), Matching(((1, 2),), 3, 3))
    with pytest.raises(ValueError):
        two_structure(make_spec("A1k", 2, 2), Matching(((1, 2),), None, 2))


def test_render_format():
    m = Matching(((1, 5), (3, 8), (4, 6), (7, 9)), 2, 9)
    assert m.render() == "(1,5)(3,8)(4,6)(7,9);iso=2"
    assert Matching(((1, 2), (3, 4)), None, 4).render() == "(1,2)(3,4)"
