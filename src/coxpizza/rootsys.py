"""Arrangement catalog: positive root systems, Jacobians and chamber signs.

Families:
  A    -- rank n, realized in n+1 coordinates on the hyperplane sum(a) = 0
  D    -- rank n (n >= 3), realized in n coordinates
  A1k  -- k orthogonal coordinate hyperplanes inside an ambient dimension
  I2   -- dihedral with m lines in the plane; numeric only (irrational roots)

Roots for A/D/A1k are stored with unnormalized integer coordinates (entries
in {-1, 0, 1}); exact algebra works with the integer pairings <coords, a>.
The unit pseudo-root is coords / sqrt(norm_squared), used only on numeric
paths.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .polyring import Poly, mul

FAMILIES = ("A", "D", "A1k", "I2")


class OnHyperplane(ValueError):
    """Raised when a point lies on (or numerically too close to) a hyperplane."""


@dataclass(frozen=True)
class ArrangementSpec:
    family: str
    rank: int
    ambient_dim: int
    positive_root_count: int

    def __str__(self) -> str:
        if self.family == "A1k":
            return f"A1k:{self.rank}@{self.ambient_dim}"
        return f"{self.family}:{self.rank}"


def make_spec(family: str, rank: int, ambient_dim: int | None = None) -> ArrangementSpec:
    if family == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return ArrangementSpec("A", rank, rank + 1, rank * (rank + 1) // 2)
    if family == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        return ArrangementSpec("D", rank, rank, rank * (rank - 1))
    if family == "A1k":
        ambient = rank if ambient_dim is None else ambient_dim
        if not 1 <= rank <= ambient:
            raise ValueError("type A1k needs 1 <= k <= ambient dimension")
        return ArrangementSpec("A1k", rank, ambient, rank)
    if family == "I2":
        if rank < 2:
            raise ValueError("type I2 needs m >= 2")
        return ArrangementSpec("I2", rank, 2, rank)
    raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


_SPEC_RE = re.compile(r"^(A1k|A|D|I2):(\d+)(?:@(\d+))?$")


def parse_spec(text: str) -> ArrangementSpec:
    """Parse CLI spec strings: "A:6", "D:5", "A1k:3@7", "I2:5"."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse arrangement spec {text!r} (expected e.g. A:6, D:5, A1k:3@7, I2:5)")
    family, rank, ambient = m.group(1), int(m.group(2)), m.group(3)
    if ambient is not None and family != "A1k":
        raise ValueError("ambient dimension suffix @d is only valid for A1k")
    return make_spec(family, rank, int(ambient) if ambient else None)


@dataclass(frozen=True)
class Root:
    coords: Tuple[int, ...]
    norm_squared: int

    def pairing(self, point: Sequence) -> object:
        """Integer-coefficient pairing <coords, point>; exact if point is exact."""
        return sum(c * x for c, x in zip(self.coords, point) if c)


def positive_roots(spec: ArrangementSpec) -> List[Root]:
    """The standard positive system, in deterministic order.

    Order: lexicographic in (i, j); for type D the e_i - e_j form precedes
    e_i + e_j.  I2 has no exact integer roots; use numeric_roots.
    """
    dim = spec.ambient_dim
    roots: List[Root] = []
    if spec.family == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                coords = [0] * dim
                coords[i], coords[j] = 1, -1
                roots.append(Root(tuple(coords), 2))
    elif spec.family == "D":
        for i in range(dim):
            for j in range(i + 1, dim):
                minus = [0] * dim
                minus[i], minus[j] = 1, -1
                plus = [0] * dim
                plus[i], plus[j] = 1, 1
                roots.append(Root(tuple(minus), 2))
                roots.append(Root(tuple(plus), 2))
    elif spec.family == "A1k":
        for i in range(spec.rank):
            coords = [0] * dim
            coords[i] = 1
            roots.append(Root(tuple(coords), 1))
    else:
        raise ValueError(f"family {spec.family} has no exact integer roots")
    assert len(roots) == spec.positive_root_count
    return roots


def jacobian_unnormalized(spec: ArrangementSpec) -> Poly:
    """Product of the integer linear forms <coords, a> over the positive roots.

    Degree equals the positive root count.  Relative to the unit-root
    Jacobian this carries an extra factor 2^(|roots|/2) for types A and D.
    """
    if spec.family not in ("A", "D"):
        raise ValueError(f"Jacobian only defined for families A and D, not {spec.family}")
    result = Poly.constant(spec.ambient_dim, 1)
    for root in positive_roots(spec):
        result = mul(result, Poly.linear_form(spec.ambient_dim, root.coords))
    return result


def numeric_roots(spec: ArrangementSpec) -> List[Tuple[float, ...]]:
    """Unit pseudo-roots as float vectors; for I2(m) the m directions j*pi/m."""
    if spec.family == "I2":
        m = spec.rank
        return [(math.cos(j * math.pi / m), math.sin(j * math.pi / m)) for j in range(m)]
    out = []
    for root in positive_roots(spec):
        scale = 1.0 / math.sqrt(root.norm_squared)
        out.append(tuple(c * scale for c in root.coords))
    return out


_NUMERIC_TOL = 1e-12


def chamber_sign(spec: ArrangementSpec, point: Sequence) -> int:
    """(-1)^(number of positive roots with negative pairing at the point).

    The base chamber (all pairings positive) returns +1.  Raises
    OnHyperplane for exact zeros, or float pairings within 1e-12.
    """
    if len(point) != spec.ambient_dim:
        raise ValueError(f"point has dimension {len(point)}, expected {spec.ambient_dim}")
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    negatives = 0
    if spec.family == "I2":
        exact = False
        pairings = [sum(c * float(x) for c, x in zip(root, point)) for root in numeric_roots(spec)]
    else:
        pairings = [root.pairing(point) for root in positive_roots(spec)]
    for p in pairings:
        if (exact and p == 0) or (not exact and abs(p) <= _NUMERIC_TOL):
            raise OnHyperplane(f"point {tuple(point)} lies on a hyperplane of {spec}")
        if p < 0:
            negatives += 1
    return -1 if negatives % 2 else 1


def reflect(vector: Sequence[int], root: Root) -> Tuple[Fraction, ...]:
    """Orthogonal reflection of an integer vector in the root's hyperplane."""
    num = sum(c * x for c, x in zip(root.coords, vector))
    factor = Fraction(2 * num, root.norm_squared)
    return tuple(Fraction(x) - factor * c for x, c in zip(vector, root.coords))
