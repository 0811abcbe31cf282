import itertools
import random

import pytest

from coxpizza._kernel import accumulate_tensor, pack_exponents, unpack_exponents


def test_pack_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        arity = rng.randint(1, 10)
        exps = tuple(rng.randint(0, 60) for _ in range(arity))
        assert unpack_exponents(pack_exponents(exps), arity) == exps


def test_pack_rejects_large_exponent():
    with pytest.raises(ValueError):
        pack_exponents((256,))


def test_packed_addition_adds_exponents():
    a = pack_exponents((2, 0, 5))
    b = pack_exponents((1, 3, 0))
    assert unpack_exponents(a + b, 3) == (3, 3, 5)


def random_problem(rng, nslots):
    m = rng.randint(0, 3)
    slot_keys = []
    slot_coeffs = []
    for _ in range(nslots):
        keys_by_q = []
        coeffs_by_q = []
        for q in range(m + 1):
            count = rng.randint(1, 4)
            keys_by_q.append([pack_exponents(tuple(rng.randint(0, 3) for _ in range(4)))
                              for _ in range(count)])
            coeffs_by_q.append([rng.randint(-10**12, 10**12) for _ in range(count)])
        slot_keys.append(keys_by_q)
        slot_coeffs.append(coeffs_by_q)
    comps = [comp for comp in itertools.product(range(m + 1), repeat=nslots) if sum(comp) == m]
    scales = [rng.randint(-10**15, 10**15) for _ in comps]
    return slot_keys, slot_coeffs, comps, scales


def test_accumulation_matches_direct_expansion():
    # every slot count, including the generic recursive path beyond four
    rng = random.Random(17)
    for nslots in range(1, 7):
        for _ in range(10):
            slot_keys, slot_coeffs, comps, scales = random_problem(rng, nslots)
            sign = rng.choice((-1, 1))
            expected = {}
            for comp, scale in zip(comps, scales):
                lists = [zip(slot_keys[t][q], slot_coeffs[t][q]) for t, q in enumerate(comp)]
                for terms in itertools.product(*lists):
                    key = sum(k for k, _ in terms)
                    coeff = sign * scale
                    for _, c in terms:
                        coeff *= c
                    expected[key] = expected.get(key, 0) + coeff
            acc = {}
            accumulate_tensor(acc, slot_keys, slot_coeffs, comps, scales, sign)
            assert acc == expected


def test_pure_kernel_handles_wide_arity():
    # keys are Python ints, so arities beyond 8 bytes pack without overflow
    key = pack_exponents(tuple([1] * 10))
    acc = {}
    accumulate_tensor(acc, [[[key], [key]]], [[[2], [3]]], [(0,), (1,)], [5, 7], 1)
    assert acc == {key: 2 * 5 + 3 * 7}


def test_accumulation_is_exact_at_large_magnitude():
    key = pack_exponents((1, 1))
    big = 10**40
    acc = {}
    accumulate_tensor(acc, [[[key]]], [[[big]]], [(0,)], [big], 1)
    assert acc == {key: big * big}
