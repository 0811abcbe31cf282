"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from monomials to nonzero rational coefficients.
Monomials are dense exponent tuples (one entry per variable); the variable
count (arity) is fixed per polynomial.  Coefficients are ``fractions.Fraction``
so every operation in this module is exact: no float ever enters.

The monomial order used for division and rendering is graded lexicographic
(total degree first, then lexicographic on the exponent tuple).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
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
    def zero(arity: int) -> "Poly":
        return Poly(arity, {})

    @staticmethod
    def constant(arity: int, value) -> "Poly":
        return Poly(arity, {(0,) * arity: Fraction(value)})

    @staticmethod
    def variable(arity: int, index: int, exponent: int = 1) -> "Poly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = exponent
        return Poly(arity, {tuple(exps): Fraction(1)})

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

    def coefficient(self, mono: Sequence[int]) -> Rational:
        return self.terms.get(tuple(mono), Fraction(0))

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
        out = Poly.__new__(Poly)
        out.arity = self.arity
        out.terms = {m: c * f for m, c in self.terms.items()}
        return out

    def pow(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = mul(result, base)
            base = mul(base, base) if n > 1 else base
            n >>= 1
        return result

    # -- variable actions ----------------------------------------------

    def permute_variables(self, perm: Sequence[int]) -> "Poly":
        """Relabel variables: variable i becomes variable perm[i]."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the variable indices")
        out: Dict[Monomial, Rational] = {}
        for mono, coeff in self.terms.items():
            new = [0] * self.arity
            for i, e in enumerate(mono):
                new[perm[i]] = e
            out[tuple(new)] = coeff
        return Poly(self.arity, out)

    def flip_variable_sign(self, index: int) -> "Poly":
        """Substitute x_index -> -x_index."""
        out: Dict[Monomial, Rational] = {}
        for mono, coeff in self.terms.items():
            out[mono] = -coeff if mono[index] % 2 else coeff
        return Poly(self.arity, out)

    def evaluate(self, point: Sequence[float]) -> float:
        """Float evaluation, for numeric cross-checks only."""
        if len(point) != self.arity:
            raise ValueError("point length must equal arity")
        total = 0.0
        for mono, coeff in self.terms.items():
            v = float(coeff)
            for x, e in zip(point, mono):
                if e:
                    v *= x**e
            total += v
        return total

    # -- rendering -------------------------------------------------------

    def sorted_terms(self) -> Iterator[Tuple[Monomial, Rational]]:
        """Terms in descending graded-lex order (the canonical order)."""
        for mono in sorted(self.terms, key=_grlex_key, reverse=True):
            yield mono, self.terms[mono]

    def to_text(self, varname: str = "a") -> str:
        """Canonical text form: sorted graded-lex, coefficients as num/den."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"{varname}{i + 1}")
                elif e > 1:
                    factors.append(f"{varname}{i + 1}^{e}")
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

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {self.to_text()})"


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
    result = Poly.__new__(Poly)
    result.arity = p.arity
    result.terms = out
    return result


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
    result = Poly.__new__(Poly)
    result.arity = p.arity
    result.terms = out
    return result


def substitute_linear(p: Poly, var_index: int, form: Poly) -> Poly:
    """Replace variable var_index by a polynomial of degree <= 1, expanded."""
    if not 0 <= var_index < p.arity:
        raise IndexError(f"variable index {var_index} out of range")
    _check_same_arity(p, form)
    if form.degree() > 1:
        raise ValueError("substitution form must have degree <= 1")
    # Group by the exponent of the substituted variable; reuse form powers.
    powers: Dict[int, Poly] = {0: Poly.constant(p.arity, 1)}
    result = Poly.zero(p.arity)
    for mono, coeff in p.terms.items():
        e = mono[var_index]
        if e not in powers:
            prev = max(k for k in powers if k <= e)
            acc = powers[prev]
            for k in range(prev + 1, e + 1):
                acc = mul(acc, form)
                powers[k] = acc
        rest = list(mono)
        rest[var_index] = 0
        result = add(result, mul(Poly(p.arity, {tuple(rest): coeff}), powers[e]))
    return result


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


def vandermonde(arity: int, var_indices: Sequence[int] | None = None, squared: bool = False) -> Poly:
    """prod_{i<j} (x_i - x_j), or prod (x_i^2 - x_j^2) when squared."""
    idx = list(var_indices) if var_indices is not None else list(range(arity))
    result = Poly.constant(arity, 1)
    for s, i in enumerate(idx):
        for j in idx[s + 1 :]:
            coeffs = [0] * arity
            coeffs[i] = 1
            coeffs[j] = -1
            factor = Poly.linear_form(arity, coeffs)
            if squared:
                coeffs[j] = 1
                factor = mul(factor, Poly.linear_form(arity, coeffs))
            result = mul(result, factor)
    return result


def is_skew_under_transposition(p: Poly, i: int, j: int) -> bool:
    """True iff swapping variables i and j negates p exactly."""
    if i == j:
        raise ValueError("need two distinct variable indices")
    perm = list(range(p.arity))
    perm[i], perm[j] = perm[j], perm[i]
    return p.permute_variables(perm) == p.scale(-1)


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


def partitions(total: int, max_parts: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``total`` into at most ``max_parts`` parts."""
    if max_part is None:
        max_part = total

    def rec(remaining: int, slots: int, bound: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - part, slots - 1, part, prefix + (part,))

    yield from rec(total, max_parts, max_part, ())


def _alternant_determinant(exponents: Sequence[int], nvars: int) -> Poly:
    """det of the matrix (x_i ^ exponents[j]) via signed permutation expansion.

    Entries are single monomials, so cofactor expansion reduces to the sum
    over permutations; nvars stays small (<= 8) in every use here.
    """
    import itertools

    terms: Dict[Monomial, Rational] = {}

    def perm_sign(perm: Sequence[int]) -> int:
        sign = 1
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    for perm in itertools.permutations(range(nvars)):
        mono = tuple(exponents[perm[i]] for i in range(nvars))
        coeff = terms.get(mono, 0) + perm_sign(perm)
        if coeff:
            terms[mono] = coeff
        else:
            terms.pop(mono, None)
    return Poly(nvars, {m: Fraction(c) for m, c in terms.items()})


def schur_bialternant(lam: Iterable[int], nvars: int) -> Poly:
    """Schur polynomial s_lambda(x_1..x_nvars) as alternant / Vandermonde."""
    lam = normalize_partition(lam)
    if len(lam) > nvars:
        raise ValueError("partition has more parts than variables")
    if nvars < 1:
        raise ValueError("need at least one variable")
    padded = list(lam) + [0] * (nvars - len(lam))
    exponents = [padded[j] + (nvars - 1 - j) for j in range(nvars)]
    numerator = _alternant_determinant(exponents, nvars)
    return divide_by_vandermonde(numerator, range(nvars))


def _monomial_coefficients(coeffs: Mapping[Partition, Rational], size: int,
                           nvars: int) -> Dict[Partition, Rational]:
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
    out: Dict[Partition, Rational] = {}
    alpha = [0] * nvars
    residual = [0] * nvars
    used = [False] * nvars  # delta values 0..nvars-1, each taken once

    def alternating_sum(pos: int, inversions: int) -> Rational:
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


def _distinct_permutations(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every distinct rearrangement of a multiset, each exactly once."""
    counts = Counter(values)
    distinct = sorted(counts, reverse=True)
    slots: List[int] = [0] * len(values)

    def rec(pos: int) -> Iterator[Tuple[int, ...]]:
        if pos == len(slots):
            yield tuple(slots)
            return
        for v in distinct:
            if counts[v]:
                counts[v] -= 1
                slots[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    return rec(0)


def schur_combination(coeffs: Mapping[Partition, Rational], nvars: int,
                      squared: bool = False) -> Poly:
    """sum of coeffs[lambda] * s_lambda(x_1..x_nvars), expanded, or of
    s_lambda(x_1^2..x_nvars^2) when squared.

    Partitions are keyed as ``partitions`` yields them (no trailing zeros).
    The result is symmetric, so only its sorted-monomial coefficients are
    solved for (see _monomial_coefficients) and each is then spread over the
    distinct rearrangements of its exponents; no alternant is expanded and
    nothing is divided.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    for lam in coeffs:
        if normalize_partition(lam) != tuple(lam) or len(lam) > nvars:
            raise ValueError(f"{lam} is not a partition into at most {nvars} parts")
    factor = 2 if squared else 1
    terms: Dict[Monomial, Rational] = {}
    for size in sorted({sum(lam) for lam in coeffs}):
        for nu, q in _monomial_coefficients(coeffs, size, nvars).items():
            for mono in _distinct_permutations(nu):
                terms[tuple(factor * e for e in mono)] = q
    return Poly(nvars, terms)
