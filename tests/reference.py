"""Reference routes that only the tests use: slower, direct computations
that the library's results are compared against."""

from fractions import Fraction
from typing import Dict, Tuple

from coxpizza.conjectures import RewriteFailed
from coxpizza.polyring import Poly, mul


def rewrite_even_symmetric(p: Poly) -> Dict[Tuple[int, int], Fraction]:
    """Write a symmetric polynomial with all-even exponents in two variables
    in the basis u = x^2 + y^2, v = x^2 y^2, by repeatedly subtracting the
    leading term's u^i v^j multiple; raises RewriteFailed otherwise."""
    if p.arity != 2:
        raise ValueError("rewrite expects a two-variable polynomial")
    if any(e % 2 for mono in p.terms for e in mono):
        raise RewriteFailed("quotient has an odd exponent; expected even in each variable")
    halved = Poly(2, {(mono[0] // 2, mono[1] // 2): c for mono, c in p.terms.items()})
    if halved.permute_variables([1, 0]) != halved:
        raise RewriteFailed("quotient is not symmetric in its variables")
    u = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    v = Poly(2, {(1, 1): Fraction(1)})
    out: Dict[Tuple[int, int], Fraction] = {}
    work = halved
    while not work.is_zero():
        mono, coeff = work.leading()
        a, b = mono
        if a < b:
            raise RewriteFailed(f"leading monomial {mono} cannot come from a symmetric polynomial")
        out[(a - b, b)] = coeff
        work = work - mul(u.pow(a - b), v.pow(b)).scale(coeff)
    return out
