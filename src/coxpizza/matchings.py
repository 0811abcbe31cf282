"""Maximal matchings on {1..r} with crossing-number signs, and the
orthogonal root subsystems they index for types A and D.

Matchings are streamed in a fixed deterministic order (smallest unused
vertex pairs with each larger unused vertex in increasing order, then the
isolated-vertex branch when the ground set is odd), so consumers can fold
over them reproducibly and split work by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .rootsys import ArrangementSpec, Root


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


@dataclass(frozen=True)
class TwoStructure:
    """Pairwise orthogonal positive roots attached to a matching: one root
    per edge for type A, the minus and plus forms per edge for type D."""

    source: Matching
    positive_roots: Tuple[Root, ...]


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
    """How the maximal matchings of a family index its orthogonal
    subsystems: matchings of {1..ground}, k forms per subsystem, nslots
    edges per matching, and per edge the minus form e_i - e_j alone (type A)
    or the minus/plus pair e_i - e_j, e_i + e_j (type D)."""

    ground: int
    k: int
    nslots: int
    pair_forms: bool


def fold_parameters(spec: ArrangementSpec) -> FoldGeometry:
    """The fold geometry of a type A or D arrangement."""
    if spec.family == "A":
        ground = spec.rank + 1
        return FoldGeometry(ground, ground // 2, ground // 2, False)
    if spec.family == "D":
        return FoldGeometry(spec.rank, spec.rank - 1, spec.rank // 2, True)
    raise ValueError(f"no matching fold for family {spec.family}")


def form_values(geometry: FoldGeometry, m: Matching, point: Sequence) -> Iterator:
    """The unnormalized forms of the subsystem indexed by m at a point, edge
    by edge: a_i - a_j, then a_i + a_j when the edge carries a pair."""
    for i, j in m.edges:
        yield point[i - 1] - point[j - 1]
        if geometry.pair_forms:
            yield point[i - 1] + point[j - 1]


def two_structure(spec: ArrangementSpec, m: Matching) -> TwoStructure:
    """Positive roots per edge: e_i - e_j for type A; for type D the pair
    e_i - e_j then e_i + e_j.  Coordinates are unnormalized integers."""
    if spec.family not in ("A", "D"):
        raise ValueError(f"two-structures by matchings exist for families A and D, not {spec.family}")
    geometry = fold_parameters(spec)
    if m.ground_size != geometry.ground:
        raise ValueError(f"matching ground size {m.ground_size} does not match {spec} (expected {geometry.ground})")
    dim = spec.ambient_dim
    roots: List[Root] = []
    for i, j in m.edges:
        minus = [0] * dim
        minus[i - 1], minus[j - 1] = 1, -1
        roots.append(Root(tuple(minus), 2))
        if geometry.pair_forms:
            plus = [0] * dim
            plus[i - 1], plus[j - 1] = 1, 1
            roots.append(Root(tuple(plus), 2))
    return TwoStructure(m, tuple(roots))
