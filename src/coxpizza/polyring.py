"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from monomials to nonzero rational coefficients.
Monomials are dense exponent tuples (one entry per variable); the variable
count (arity) is fixed per polynomial.  Coefficients are ``fractions.Fraction``
in every input and output, so every operation in this module is exact: no
float ever enters.

Symmetric polynomials (the quotients sum c_lambda s_lambda) are kept on
their sorted-monomial coefficients over one integer denominator
(monomial_coefficients).  The type A reduction modulo x_1 + ... + x_g = 0
runs on that basis too (reduce_symmetric_mod_sum), and monomial_terms lists
the terms in the canonical order straight from it, one Fraction per
coefficient shared by all its rearrangements, so the reports never build a
Poly.  spread_monomials expands the same basis into a Poly for the
reference routes; substitute_linear, the reference route of the reduction,
substitutes into an expanded polynomial on Python ints over one
denominator.

The monomial order used for division and rendering is graded lexicographic
(total degree first, then lexicographic on the exponent tuple).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

Rational = Fraction
Monomial = Tuple[int, ...]
Partition = Tuple[int, ...]


class NonDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _grlex_key(mono: Monomial) -> Tuple[int, Monomial]:
    return (sum(mono), mono)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored canonically: no zero coefficients, every exponent tuple has
    length ``arity``.  Instances are treated as immutable; all operations
    return new polynomials.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Dict[Monomial, Rational] | None = None):
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        self.arity = arity
        clean: Dict[Monomial, Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != arity:
                    raise ValueError(f"monomial {mono} has length {len(mono)}, expected {arity}")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def _canonical(arity: int, terms: Dict[Monomial, Rational]) -> "Poly":
        """Wrap terms that are already canonical (nonzero Fractions keyed by
        tuples of length arity), skipping the checks of __init__."""
        out = Poly.__new__(Poly)
        out.arity = arity
        out.terms = terms
        return out

    @staticmethod
    def zero(arity: int) -> "Poly":
        return Poly(arity, {})

    @staticmethod
    def linear_form(arity: int, coeffs: Sequence) -> "Poly":
        """Polynomial c_0*x_0 + ... + c_{arity-1}*x_{arity-1}."""
        if len(coeffs) != arity:
            raise ValueError("coefficient vector length must equal arity")
        terms: Dict[Monomial, Rational] = {}
        for i, c in enumerate(coeffs):
            if c:
                exps = [0] * arity
                exps[i] = 1
                terms[tuple(exps)] = Fraction(c)
        return Poly(arity, terms)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading(self) -> Tuple[Monomial, Rational]:
        """Graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return add(self, other)

    def __sub__(self, other: "Poly") -> "Poly":
        return add(self, other.scale(-1))

    def __mul__(self, other: "Poly") -> "Poly":
        return mul(self, other)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def scale(self, factor) -> "Poly":
        f = Fraction(factor)
        if f == 0:
            return Poly.zero(self.arity)
        return Poly._canonical(self.arity, {m: c * f for m, c in self.terms.items()})

    # -- rendering -------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Monomial, Rational]]:
        """Terms in descending graded-lex order (the canonical order): sorted
        by the exponent tuple, then stably by total degree."""
        terms = self.terms
        return [(mono, terms[mono])
                for mono in sorted(sorted(terms, reverse=True), key=sum, reverse=True)]

    def to_text(self) -> str:
        """Canonical text form: sorted graded-lex, coefficients as num/den."""
        return format_terms(self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {self.to_text()})"


def format_terms(terms: Sequence[Tuple[Monomial, Rational]]) -> str:
    """The text form of (monomial, coefficient) terms in their given order:
    coefficients as num/den, variables a1, a2, ..., "0" for no terms."""
    if not terms:
        return "0"
    parts = []
    for mono, coeff in terms:
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"a{i + 1}")
            elif e > 1:
                factors.append(f"a{i + 1}^{e}")
        mag = abs(coeff)
        body = "*".join(factors)
        if not factors:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + chunk)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def _check_same_arity(p: Poly, q: Poly) -> None:
    if p.arity != q.arity:
        raise ValueError(f"arity mismatch: {p.arity} != {q.arity}")


def add(p: Poly, q: Poly) -> Poly:
    """Coefficient-wise sum, canonicalized."""
    _check_same_arity(p, q)
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        s = out.get(mono, 0) + coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return Poly._canonical(p.arity, out)


def mul(p: Poly, q: Poly) -> Poly:
    """Distributed product, canonicalized."""
    _check_same_arity(p, q)
    out: Dict[Monomial, Rational] = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return Poly._canonical(p.arity, out)


def substitute_linear(p: Poly, var_index: int, form: Poly) -> Poly:
    """Replace variable var_index by a polynomial of degree <= 1, expanded."""
    from math import lcm

    if not 0 <= var_index < p.arity:
        raise IndexError(f"variable index {var_index} out of range")
    _check_same_arity(p, form)
    if form.degree() > 1:
        raise ValueError("substitution form must have degree <= 1")
    # Over integers p = P / L and form = F / Lf, so with P = sum_e P_e x^e
    # (P_e free of x) the result is sum_e P_e F^e Lf^(top-e) / (L Lf^top):
    # Horner in x on ints, (..(P_top F + P_(top-1) Lf) F + ..) F + P_0 Lf^top.
    den = lcm(*(c.denominator for c in p.terms.values()))
    form_den = lcm(*(c.denominator for c in form.terms.values()))
    slices: Dict[int, Dict[Monomial, int]] = {}
    for mono, c in p.terms.items():
        rest = list(mono)
        rest[var_index] = 0
        slices.setdefault(mono[var_index], {})[tuple(rest)] = c.numerator * (den // c.denominator)
    # each form term as (index of its variable, or -1 for the constant, numerator)
    shifts = [(mono.index(1) if any(mono) else -1, c.numerator * (form_den // c.denominator))
              for mono, c in form.terms.items()]
    top = max(slices, default=0)
    acc: Dict[Monomial, int] = {}
    for e in range(top, -1, -1):
        weight = form_den ** (top - e)
        grown: Dict[Monomial, int] = {}
        for mono, c in acc.items():
            for i, f in shifts:
                key = mono if i < 0 else mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                grown[key] = grown.get(key, 0) + c * f
        for mono, c in slices.get(e, {}).items():
            grown[mono] = grown.get(mono, 0) + c * weight
        acc = grown
    den *= form_den**top
    return Poly._canonical(p.arity, {m: Fraction(c, den) for m, c in acc.items() if c})


def exact_divide_linear(p: Poly, form: Poly) -> Poly:
    """Exact quotient p / form for a nonzero homogeneous linear form.

    Reduces against the graded-lex leading variable of the form, processing
    whole slices of constant degree in that variable at a time; raises
    NonDivisible if any remainder survives.
    """
    if form.is_zero() or form.degree() != 1 or not form.is_homogeneous():
        raise ValueError("divisor must be a nonzero homogeneous linear form")
    _check_same_arity(p, form)
    if p.is_zero():
        return Poly.zero(p.arity)

    lead_mono, lead_coeff = form.leading()
    pivot = lead_mono.index(1)
    rest = Poly(form.arity, {m: c for m, c in form.terms.items() if m != lead_mono})

    # Slice p by the pivot exponent: p = sum_c p_c * x_pivot^c, and solve
    # q_{c-1} = (p_c - (rest*q)_c) / lead_coeff from the top degree down.
    slices: Dict[int, Dict[Monomial, Rational]] = {}
    for mono, coeff in p.terms.items():
        c = mono[pivot]
        stripped = list(mono)
        stripped[pivot] = 0
        slices.setdefault(c, {})[tuple(stripped)] = coeff

    top = max(slices)
    quotient_slices: Dict[int, Poly] = {}
    carry = Poly(p.arity, slices.get(top, {}))
    for c in range(top, 0, -1):
        q_c = carry.scale(Fraction(1, 1) / lead_coeff)
        quotient_slices[c - 1] = q_c
        lower = Poly(p.arity, slices.get(c - 1, {}))
        carry = lower - mul(rest, q_c)
    if not carry.is_zero():
        raise NonDivisible(f"nonzero remainder when dividing by {form.to_text()}")

    out: Dict[Monomial, Rational] = {}
    for c, q_c in quotient_slices.items():
        for mono, coeff in q_c.terms.items():
            lifted = list(mono)
            lifted[pivot] = c
            out[tuple(lifted)] = coeff
    return Poly(p.arity, out)


def divide_by_vandermonde(p: Poly, var_indices: Sequence[int], squared: bool = False) -> Poly:
    """Exact division by prod_{i<j} (x_i - x_j), and also (x_i + x_j) if squared.

    NonDivisible propagates from any factor.
    """
    result = p
    idx = list(var_indices)
    for s, i in enumerate(idx):
        for j in idx[s + 1 :]:
            coeffs = [0] * p.arity
            coeffs[i] = 1
            coeffs[j] = -1
            result = exact_divide_linear(result, Poly.linear_form(p.arity, coeffs))
            if squared:
                coeffs[j] = 1
                result = exact_divide_linear(result, Poly.linear_form(p.arity, coeffs))
    return result


# ---------------------------------------------------------------------------
# partitions and Schur polynomials
# ---------------------------------------------------------------------------


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Canonical form: weakly decreasing, trailing zeros stripped."""
    seq = [int(x) for x in parts]
    if any(x < 0 for x in seq):
        raise ValueError("partition parts must be non-negative")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def partitions(total: int, max_parts: int) -> Iterator[Partition]:
    """All partitions of ``total`` into at most ``max_parts`` parts."""

    def rec(remaining: int, slots: int, bound: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            yield prefix
        elif slots:
            # a part below remaining / slots leaves more than the other slots can hold
            for part in range(min(bound, remaining), (remaining - 1) // slots, -1):
                yield from rec(remaining - part, slots - 1, part, prefix + (part,))

    yield from rec(total, max_parts, total, ())


def _monomial_coefficients(coeffs: Mapping[Partition, int], size: int,
                           nvars: int) -> Dict[Partition, int]:
    """Coefficients q_nu on the sorted monomials x^nu of sum c_lambda s_lambda
    over the partitions of ``size``, keyed by nu padded to ``nvars`` parts.

    Multiplying by the Vandermonde a_delta turns the sum into the alternant
    sum c_lambda a_(lambda+delta), so comparing coefficients on x^(lambda+delta)
    gives c_lambda = sum over permutations w of sgn(w) q_sort(lambda+delta-w.delta).
    Every w other than the identity yields a partition strictly above lambda
    in dominance, hence in lexicographic order, so the relation is solved for
    q_lambda in decreasing lexicographic order.  Only permutations keeping
    every exponent non-negative are visited: the last position is filled
    first, and each position admits the unused delta values up to its own
    exponent, a set that only grows towards the front, so no branch dies.
    """
    out: Dict[Partition, int] = {}
    alpha = [0] * nvars
    residual = [0] * nvars
    used = [False] * nvars  # delta values 0..nvars-1, each taken once

    def alternating_sum(pos: int, inversions: int) -> int:
        if pos < 0:
            q = out.get(tuple(sorted(residual, reverse=True)))
            if q is None:  # the identity (lambda itself, not yet solved) or zero
                return 0
            return -q if inversions % 2 else q
        total = 0
        above = 0  # used values greater than v: the inversions placing v adds
        for v in range(min(alpha[pos], nvars - 1), -1, -1):
            if used[v]:
                above += 1
                continue
            used[v] = True
            residual[pos] = alpha[pos] - v
            total += alternating_sum(pos - 1, inversions + above)
            used[v] = False
        return total

    for lam in partitions(size, nvars):
        padded = lam + (0,) * (nvars - len(lam))
        for i, part in enumerate(padded):
            alpha[i] = part + nvars - 1 - i
        q = coeffs.get(lam, 0) - alternating_sum(nvars - 1, 0)
        if q:
            out[padded] = q
    return out


def _distinct_permutations(values: Sequence[int],
                           tail: Tuple[int, ...] = ()) -> List[Tuple[int, ...]]:
    """Every distinct rearrangement of a multiset, each exactly once and
    followed by ``tail``, in increasing lexicographic order.  From the
    ascending arrangement, each successor swaps the rightmost entry below
    its right neighbour with the rightmost larger entry after it, then
    reverses the (descending) run after its old place."""
    a = sorted(values)
    n = len(a)
    a += tail
    out = [tuple(a)]
    i = n - 2
    while i >= 0:
        ai = a[i]
        if ai >= a[i + 1]:
            i -= 1
            continue
        j = n - 1
        while a[j] <= ai:
            j -= 1
        a[i], a[j] = a[j], ai
        a[i + 1:n] = a[n - 1:i:-1]
        out.append(tuple(a))
        i = n - 2
    return out


def monomial_coefficients(coeffs: Mapping[Partition, Rational],
                          nvars: int) -> Tuple[Dict[Partition, int], int]:
    """(q, L): the sorted-monomial coefficients of sum coeffs[lambda] *
    s_lambda(x_1..x_nvars) on integers, keyed by partitions padded to nvars
    parts, and the one denominator L (the lcm of the coefficients') they
    are over.  Partitions are keyed as ``partitions`` yields them."""
    from math import lcm

    if nvars < 1:
        raise ValueError("need at least one variable")
    for lam in coeffs:
        if normalize_partition(lam) != tuple(lam) or len(lam) > nvars:
            raise ValueError(f"{lam} is not a partition into at most {nvars} parts")
    den = lcm(*(c.denominator for c in coeffs.values()))
    cleared = {lam: c.numerator * (den // c.denominator) for lam, c in coeffs.items()}
    q: Dict[Partition, int] = {}
    for size in sorted({sum(lam) for lam in coeffs}):
        q.update(_monomial_coefficients(cleared, size, nvars))
    return q, den


def reduce_symmetric_mod_sum(q: Mapping[Partition, int]) -> Dict[Partition, int]:
    """The symmetric polynomial sum q_nu m_nu(x_1..x_g) modulo the relation
    x_1 + ... + x_g = 0, with x_g = -p_1(x_1..x_(g-1)) substituted, on the
    monomial symmetric basis of the first g-1 variables (partitions padded
    to g-1 parts; g >= 2).

    Splitting by the exponent e of x_g, m_nu = sum over the distinct parts e
    of nu of m_(nu-e) x_g^e, so the sum is sum_e P_e x_g^e with P_e = sum
    over nu containing e of q_nu m_(nu-e), and Horner in x_g runs
    acc <- -p_1 acc + P_e from the top exponent down.  p_1 m_kappa is the sum
    over the distinct parts u of kappa of mult(u+1 in kappa') m_kappa', for
    kappa' kappa with one u raised to u+1: x^kappa' is x_i times a
    rearrangement of kappa for each of the mult positions i holding u+1."""
    slices: Dict[int, Dict[Partition, int]] = {}
    for nu, c in q.items():
        for i, e in enumerate(nu):
            if not i or nu[i - 1] != e:
                rest = nu[:i] + nu[i + 1:]
                part = slices.setdefault(e, {})
                part[rest] = part.get(rest, 0) + c
    acc: Dict[Partition, int] = {}
    for e in range(max(slices, default=0), -1, -1):
        grown = dict(slices.get(e, {}))
        for kappa, c in acc.items():
            for i, u in enumerate(kappa):
                if i and kappa[i - 1] == u:
                    continue
                mult = 1  # the raised part, and the parts u + 1 just before it
                while i - mult >= 0 and kappa[i - mult] == u + 1:
                    mult += 1
                raised = kappa[:i] + (u + 1,) + kappa[i + 1:]
                grown[raised] = grown.get(raised, 0) - mult * c
        acc = grown
    return {kappa: c for kappa, c in acc.items() if c}


def _spread(q: Mapping[Partition, int], den: int, arity: int,
            factor: int) -> Iterator[Tuple[List[Monomial], Rational]]:
    """For each nu of sum q_nu / den m_nu: the distinct rearrangements of
    nu (exponents times factor), padded with zero exponents to arity
    variables, and the one Fraction q_nu / den they all carry."""
    pad = (0,) * (arity - len(next(iter(q), ())))
    for nu, c in q.items():
        if factor != 1:
            nu = tuple(factor * e for e in nu)
        yield _distinct_permutations(nu, pad), Fraction(c, den)


def monomial_terms(q: Mapping[Partition, int], den: int, arity: int,
                   factor: int = 1) -> List[Tuple[Monomial, Rational]]:
    """The terms of sum q_nu / den m_nu, as spread_monomials expands them,
    in Poly.sorted_terms order, without building the Poly.  The
    rearrangements of one nu share its total degree, so the terms are
    grouped by degree, and each group takes one sort by monomial
    (descending; no two terms share a monomial, so no coefficients are
    compared)."""
    groups: Dict[int, List[Tuple[Monomial, Rational]]] = {}
    for monos, coeff in _spread(q, den, arity, factor):
        groups.setdefault(sum(monos[0]), []).extend(zip(monos, repeat(coeff)))
    terms: List[Tuple[Monomial, Rational]] = []
    for degree in sorted(groups, reverse=True):
        terms += sorted(groups[degree], reverse=True)
    return terms


def spread_monomials(q: Mapping[Partition, int], den: int, arity: int,
                     factor: int = 1) -> Poly:
    """sum q_nu / den m_nu, expanded over the distinct rearrangements of
    each nu (exponents times factor), padded with zero exponents to arity
    variables."""
    terms: Dict[Monomial, Rational] = {}
    for monos, coeff in _spread(q, den, arity, factor):
        terms.update(dict.fromkeys(monos, coeff))
    return Poly._canonical(arity, terms)


def schur_combination(coeffs: Mapping[Partition, Rational], nvars: int,
                      squared: bool = False) -> Poly:
    """sum of coeffs[lambda] * s_lambda(x_1..x_nvars), expanded, or of
    s_lambda(x_1^2..x_nvars^2) when squared.

    Partitions are keyed as ``partitions`` yields them (no trailing zeros).
    The result is symmetric, so only its sorted-monomial coefficients are
    solved for (monomial_coefficients), and each is spread once over the
    distinct rearrangements of its exponents.  No alternant is expanded and
    no polynomial is divided.
    """
    q, den = monomial_coefficients(coeffs, nvars)
    return spread_monomials(q, den, nvars, 2 if squared else 1)
