"""Maximal matchings on {1..r} with crossing-number signs, and the fold
geometry of types A and D: the orthogonal forms each matching indexes, and
the binomial-series scale c_coefficient of their Taylor blocks.

A matching of the ground set {1..g} (g the ambient dimension: n+1 for A_n,
n for D_n) has g // 2 edges and, when g is odd, one isolated vertex p.  Each
edge (i, j) carries the roots of its pair of coordinates
(rootsys.PAIR_SIGNS): the form e_i - e_j (type A) or the pair e_i - e_j,
e_i + e_j (type D), so the 2-structure a matching indexes has
k = forms per edge * (g // 2) orthogonal roots: n for D_n of even rank,
n - 1 for odd rank.  The Pfaffians that sum over the matchings take an odd
ground set with one added vertex g+1, which the isolated vertex pairs with:
the edge (p, g+1) crosses p - 1 edges modulo 2, the extra sign of `sign`.
fold_parameters derives these numbers once, and every engine reads them
from its FoldGeometry, with the degree frame: half_degree gives the block
m = (d - k) / 2 of degree d, and schur_shift the shift s = (d - |Phi+|) / 2
of the alternating fold's bialternant form.

Matchings are streamed in a fixed deterministic order (smallest unused
vertex pairs with each larger unused vertex in increasing order, then the
isolated-vertex branch when the ground set is odd), so consumers can fold
over them reproducibly and split work by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .rootsys import PAIR_SIGNS, ArrangementSpec


@dataclass(frozen=True)
class Matching:
    """Maximal matching: floor(r/2) disjoint edges (i, j) with i < j, sorted
    by first vertex, plus one isolated vertex exactly when r is odd."""

    edges: Tuple[Tuple[int, int], ...]
    isolated: Optional[int]
    ground_size: int

    def __post_init__(self):
        used = set()
        for i, j in self.edges:
            if not 1 <= i < j <= self.ground_size:
                raise ValueError(f"bad edge ({i},{j}) for ground size {self.ground_size}")
            used.update((i, j))
        if self.isolated is not None:
            used.add(self.isolated)
        if len(used) != self.ground_size:
            raise ValueError("edges and isolated vertex must cover the ground set exactly")
        if (self.isolated is None) != (self.ground_size % 2 == 0):
            raise ValueError("isolated vertex present iff ground size is odd")

    def render(self) -> str:
        body = "".join(f"({i},{j})" for i, j in self.edges)
        if self.isolated is not None:
            body += f";iso={self.isolated}"
        return body


def enumerate_matchings(r: int) -> Iterator[Matching]:
    """Stream every maximal matching of {1..r} exactly once.

    Count is (r-1)!! for even r and r!! for odd r.
    """
    if r < 1:
        raise ValueError("ground size must be >= 1")

    def rec(remaining: List[int], edges: List[Tuple[int, int]], isolated: Optional[int]):
        if not remaining:
            yield Matching(tuple(edges), isolated, r)
            return
        if len(remaining) == 1:
            yield Matching(tuple(edges), remaining[0], r)
            return
        v = remaining[0]
        rest = remaining[1:]
        for idx, u in enumerate(rest):
            edges.append((v, u))
            yield from rec(rest[:idx] + rest[idx + 1 :], edges, isolated)
            edges.pop()
        if isolated is None and r % 2 == 1:
            yield from rec(rest, edges, v)

    yield from rec(list(range(1, r + 1)), [], None)


def count_matchings(r: int) -> int:
    """Double factorial: r!! for odd r, (r-1)!! for even r."""
    n = r if r % 2 else r - 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def crossings(m: Matching) -> int:
    """Number of edge pairs {a<b}, {c<d} with a < c < b < d."""
    count = 0
    edges = m.edges
    for s in range(len(edges)):
        a, b = edges[s]
        for t in range(s + 1, len(edges)):
            c, d = edges[t]
            if a < c < b < d or c < a < d < b:
                count += 1
    return count


def sign(m: Matching) -> int:
    """(-1)^crossings for even ground sets; an extra (-1)^(p-1) for odd
    ground sets with isolated vertex p."""
    exponent = crossings(m)
    if m.isolated is not None:
        exponent += m.isolated - 1
    return -1 if exponent % 2 else 1


def sign_sum(r: int) -> int:
    """Sum of sign(M) over all maximal matchings of {1..r}; equals 1."""
    return sum(sign(m) for m in enumerate_matchings(r))


@dataclass(frozen=True)
class FoldGeometry:
    """A family's fold, as the module docstring derives it: matchings of
    {1..ground}, an edge (i, j) carrying the forms e_i + s e_j for s in
    `signs` (rootsys.PAIR_SIGNS), nslots edges and k forms per matching,
    Pfaffians over `order` vertices, and roots = |Phi+|, the forms of all
    C(ground, 2) edges.  Only fold_parameters builds one."""

    ground: int
    signs: Tuple[int, ...]
    nslots: int
    k: int
    order: int
    roots: int

    @property
    def forms(self) -> int:
        """The forms per edge: 1 (type A) or 2 (type D)."""
        return len(self.signs)

    @property
    def pair_forms(self) -> bool:
        """Whether an edge carries the minus/plus pair (type D)."""
        return self.forms == 2

    def half_degree(self, d: int) -> Optional[int]:
        """The degree check every engine reads: m = (d - k) / 2 of the
        Taylor blocks of degree d, or None where the fold vanishes, below k
        or at the other parity.  Refuses a degree that is not a non-negative
        integer."""
        if not isinstance(d, int):
            raise ValueError(f"degree {d!r} is not an integer")
        if d < 0:
            raise ValueError("degree must be non-negative")
        return None if d < self.k or (d - self.k) % 2 else (d - self.k) // 2

    def schur_shift(self, d: int) -> Optional[int]:
        """The degree frame every reader of the alternating fold shares: the
        shift s = (d - roots) / 2 of Z_d = 2^s sum c_lambda a_(lambda+delta),
        exponents doubled for the pair (Macdonald, ch. I.3), so |lambda| =
        2s / forms; or None where the fold vanishes, below roots (an
        alternant has degree at least roots) or where half_degree finds no
        block.  roots and k share their parity, so s is an integer."""
        return None if self.half_degree(d) is None or d < self.roots else (d - self.roots) // 2


def fold_parameters(spec: ArrangementSpec) -> FoldGeometry:
    """The fold geometry of a family with a matching fold, type A or D: the
    ground set is the ambient dimension, and an edge carries the roots of a
    pair of coordinates (rootsys.PAIR_SIGNS), one form (type A) or two
    (type D)."""
    if spec.family not in PAIR_SIGNS:
        raise ValueError(f"no matching fold for family {spec.family}")
    ground, signs = spec.ambient_dim, PAIR_SIGNS[spec.family]
    return FoldGeometry(ground, signs, ground // 2, len(signs) * (ground // 2), ground + ground % 2,
                        spec.positive_root_count)


_C_SEQUENCES: Dict[Tuple[int, int], Tuple[Fraction, ...]] = {}


def c_coefficient(n: int, k: int, m: int) -> Fraction:
    """Binomial-series coefficient (-1)^m * C((n-k)/2, m), exact: the scale
    of the degree-m Taylor block of a rank-n arrangement folded over
    subsystems of k forms (k = fold_parameters(spec).k).

    C(alpha, m) is the falling-factorial product alpha(alpha-1)...(alpha-m+1)/m!,
    so the value is rational even for half-integer alpha.  The sequence is
    kept per (n, k) and extended in a loop by c_m = c_(m-1) (m-1-alpha) / m,
    on a copy that replaces the kept one, so no caller sees a partial one.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    seq = _C_SEQUENCES.get((n, k), (Fraction(1),))
    if len(seq) <= m:
        alpha, grown = Fraction(n - k, 2), list(seq)
        for i in range(len(seq), m + 1):
            grown.append(grown[-1] * (i - 1 - alpha) / i)
        seq = _C_SEQUENCES[n, k] = tuple(grown)
    return seq[m]


def edge_forms(geometry: FoldGeometry, i: int, j: int, point: Sequence) -> list:
    """The unnormalized forms a_i + s a_j of the edge (i, j) at a point, s in
    the geometry's signs: a_i - a_j, then a_i + a_j when the edge carries the
    pair; one subtraction or addition a form, no product."""
    x, y = point[i - 1], point[j - 1]
    return [x - y if s < 0 else x + y for s in geometry.signs]
