"""Accumulation kernel and packed-monomial helpers.

The hot operation of the symbolic pipeline: given per-slot term lists
(packed monomial keys + integer coefficients), fold the tensor products
selected by a list of compositions into an accumulator dict, scaled by a
per-composition integer and a global sign.

Keys pack one exponent per 8 bits (variable i occupies bits 8i..8i+7), so
adding keys adds exponent vectors componentwise; exponents stay < 256 by
the degree cap upstream.  Keys and coefficients are Python ints, so the
fold is exact at any magnitude and any arity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

# The only fold kernel; --version and benchmark records report it.
KERNEL_IMPLEMENTATION = "pure"


def pack_exponents(exponents: Sequence[int]) -> int:
    """Pack an exponent vector into an int, 8 bits per variable."""
    key = 0
    for i, e in enumerate(exponents):
        if not 0 <= e < 256:
            raise ValueError(f"exponent {e} out of packable range [0, 255]")
        key |= e << (8 * i)
    return key


def unpack_exponents(key: int, arity: int) -> Tuple[int, ...]:
    """Inverse of pack_exponents."""
    return tuple((key >> (8 * i)) & 0xFF for i in range(arity))


def accumulate_tensor(
    acc: Dict[int, int],
    slot_keys: List[List[Sequence[int]]],
    slot_coeffs: List[List[Sequence[int]]],
    comps: List[Tuple[int, ...]],
    scales: List[int],
    sign: int,
) -> None:
    """acc[k1+...+kE] += sign * scale * c1*...*cE over every composition.

    slot_keys[t][q] / slot_coeffs[t][q] hold the term list of slot t at
    inner degree q; comps[i] selects one q per slot and scales[i] is the
    matching integer prefactor.
    """
    nslots = len(slot_keys)
    get = acc.get
    if nslots == 1:
        k0, c0 = slot_keys[0], slot_coeffs[0]
        for comp, scale in zip(comps, scales):
            s = scale if sign > 0 else -scale
            for k, c in zip(k0[comp[0]], c0[comp[0]]):
                acc[k] = get(k, 0) + s * c
    elif nslots == 2:
        k0, c0 = slot_keys[0], slot_coeffs[0]
        k1, c1 = slot_keys[1], slot_coeffs[1]
        for comp, scale in zip(comps, scales):
            s = scale if sign > 0 else -scale
            kb, cb = k1[comp[1]], c1[comp[1]]
            for ka, ca in zip(k0[comp[0]], c0[comp[0]]):
                sa = s * ca
                for k, c in zip(kb, cb):
                    key = ka + k
                    acc[key] = get(key, 0) + sa * c
    elif nslots == 3:
        k0, c0 = slot_keys[0], slot_coeffs[0]
        k1, c1 = slot_keys[1], slot_coeffs[1]
        k2, c2 = slot_keys[2], slot_coeffs[2]
        for comp, scale in zip(comps, scales):
            s = scale if sign > 0 else -scale
            kb, cb = k1[comp[1]], c1[comp[1]]
            kc, cc = k2[comp[2]], c2[comp[2]]
            for ka, ca in zip(k0[comp[0]], c0[comp[0]]):
                sa = s * ca
                for km, cm in zip(kb, cb):
                    sm = sa * cm
                    km2 = ka + km
                    for k, c in zip(kc, cc):
                        key = km2 + k
                        acc[key] = get(key, 0) + sm * c
    elif nslots == 4:
        k0, c0 = slot_keys[0], slot_coeffs[0]
        k1, c1 = slot_keys[1], slot_coeffs[1]
        k2, c2 = slot_keys[2], slot_coeffs[2]
        k3, c3 = slot_keys[3], slot_coeffs[3]
        for comp, scale in zip(comps, scales):
            s = scale if sign > 0 else -scale
            kb, cb = k1[comp[1]], c1[comp[1]]
            kc, cc = k2[comp[2]], c2[comp[2]]
            kd, cd = k3[comp[3]], c3[comp[3]]
            for ka, ca in zip(k0[comp[0]], c0[comp[0]]):
                sa = s * ca
                for km, cm in zip(kb, cb):
                    sm = sa * cm
                    km2 = ka + km
                    for kn, cn in zip(kc, cc):
                        sn = sm * cn
                        kn2 = km2 + kn
                        for k, c in zip(kd, cd):
                            key = kn2 + k
                            acc[key] = get(key, 0) + sn * c
    else:
        for comp, scale in zip(comps, scales):
            s = scale if sign > 0 else -scale
            _rec(acc, slot_keys, slot_coeffs, comp, 0, nslots - 1, 0, s)


def _rec(acc, slot_keys, slot_coeffs, comp, t, last, key, coeff):
    ks = slot_keys[t][comp[t]]
    cs = slot_coeffs[t][comp[t]]
    if t == last:
        get = acc.get
        for k, c in zip(ks, cs):
            full = key + k
            acc[full] = get(full, 0) + coeff * c
    else:
        for k, c in zip(ks, cs):
            _rec(acc, slot_keys, slot_coeffs, comp, t + 1, last, key + k, coeff * c)
