"""Partitions, skew and shifted shapes, the outward corners and balancedness
of skew shapes, and the shifted-balanced classification.

Matrix coordinates throughout: lattice point (i, j) has i growing south and
j growing east, the bounding box's northwest point is (0, 0), and box [i, j]
is the unit box whose southeast corner is the point (i, j).

A diagram is stored as the column interval (lo_r, hi_r] of each row r: a
skew shape's row r runs (inner_r, outer_r] after translation, and a shifted
shape's runs (r - 1, r - 1 + lambda_r].  A skew shape's outward corners,
which decide its balancedness, are read off those intervals: the southeast
corners are the points (r, hi_{r+1}) with hi_{r+1} < hi_r, the northwest
corners the points (r, lo_r) with lo_r > lo_{r+1}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .posets import Poset


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        try:
            parts = tuple([operator.index(p) for p in self.parts])
        except TypeError:
            raise ValueError(f"partition parts must be integers, got {self.parts!r}") from None
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        # weakly decreasing and nonnegative: only trailing parts can be zero
        object.__setattr__(self, "parts", tuple([p for p in parts if p]))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def is_strict(self) -> bool:
        return all(
            self.parts[i] > self.parts[i + 1] for i in range(len(self.parts) - 1)
        )

    def part(self, i: int) -> int:
        """1-indexed part, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(other.part(i) <= self.part(i) for i in range(1, other.length + 1))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(
                [
                    sum(1 for p in self.parts if p >= j)
                    for j in range(1, self.parts[0] + 1)
                ]
            )
        )

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


EMPTY = Partition(())


def rectangle(a: int, b: int) -> Partition:
    """b^a: a rows of length b."""
    return Partition((b,) * a)


def staircase(d: int) -> Partition:
    """delta_d = (d, d-1, ..., 1)."""
    return Partition(tuple(range(d, 0, -1)))


class _Diagram:
    """What skew and shifted diagrams share, built from the column interval
    (lo, hi] of each row: ``boxes`` in row reading order, ``box_index``
    (box -> position in ``boxes``), and ``diagonal``, the main-diagonal boxes
    that the shifted statistics treat apart (empty for skew shapes)."""

    boxes: tuple[tuple[int, int], ...]
    box_index: dict[tuple[int, int], int]
    diagonal: frozenset[tuple[int, int]] = frozenset()

    def __init__(self, rows):
        self._lo = tuple([lo for lo, _ in rows])
        self._hi = tuple([hi for _, hi in rows])
        self.boxes = tuple(
            [(i, j) for i, (lo, hi) in enumerate(rows, 1) for j in range(lo + 1, hi + 1)]
        )
        self.box_index = {box: k for k, box in enumerate(self.boxes)}

    @property
    def n_boxes(self) -> int:
        return len(self.boxes)

    def __contains__(self, box) -> bool:
        return box in self.box_index

    def poset(self) -> Poset:
        """Box poset: u <= v iff v is weakly southeast of u, on the ids of
        ``boxes``.

        It is read off the row intervals: the upper covers of box (i, j) are
        its right neighbour (i, j + 1), the next id, and its lower neighbour
        (i + 1, j), when row i + 1 holds column j.  Both come later in row
        reading order, so the ids rise along every cover and the trusted
        ``Poset._rising`` closes them with no validation and no topological
        sort."""
        up = []
        rows = list(zip(self._lo, self._hi)) + [(0, 0)]
        start = 0
        for (lo, hi), (lo2, hi2) in zip(rows, rows[1:]):
            below = start + hi - lo - lo2 - 1  # the id of box (i + 1, j) is below + j
            for j in range(lo + 1, hi + 1):
                if lo2 < j <= hi2:
                    up.append((start + j - lo, below + j) if j < hi else (below + j,))
                else:
                    up.append((start + j - lo,) if j < hi else ())
            start += hi - lo
        return Poset._rising(up)


class SkewShape(_Diagram):
    """Skew shape lambda/nu, normalized by translation into an a x b
    bounding box."""

    def __init__(self, outer: Partition, inner: Partition = EMPTY):
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        self.outer = outer
        self.inner = inner
        occupied = [
            i for i in range(1, outer.length + 1) if outer.part(i) > inner.part(i)
        ]
        rows = []
        if occupied:
            # the last occupied row has the smallest inner part
            shift = inner.part(occupied[-1])
            rows = [
                (inner.part(i) - shift, outer.part(i) - shift)
                for i in range(occupied[0], occupied[-1] + 1)
            ]
        super().__init__(rows)
        self.a = len(rows)
        self.b = rows[0][1] if rows else 0

    def is_connected(self) -> bool:
        """Nonempty, and every row shares a column with the row below it."""
        return bool(self.boxes) and all(lo < hi for lo, hi in zip(self._lo, self._hi[1:]))

    def corners(self) -> list[tuple[str, tuple[int, int]]]:
        """Outward corners: ("NW", pt) on the inner border, ("SE", pt) on the
        outer, each from the bottom row up."""
        lo, hi = self._lo, self._hi
        rows = range(len(lo) - 1, 0, -1)
        nw = [("NW", (r, lo[r - 1])) for r in rows if lo[r] < lo[r - 1]]
        return nw + [("SE", (r, hi[r])) for r in rows if hi[r] < hi[r - 1]]

    def is_balanced(self) -> bool:
        """All outward corners on the main anti-diagonal (connected shapes only)."""
        if not self.is_connected():
            raise ValueError("balancedness is defined for connected shapes")
        a, b = self.a, self.b
        return all(b * x + a * y == a * b for _, (x, y) in self.corners())

    def __repr__(self):
        return f"SkewShape({self.outer}/{self.inner})"


class ShiftedShape(_Diagram):
    """Shifted Young diagram of a strict partition; row i occupies columns
    i .. i + lambda_i - 1."""

    def __init__(self, strict: Partition):
        if not strict.is_strict:
            raise ValueError(f"{strict} is not strict")
        self.strict = strict
        super().__init__([(i, i + p) for i, p in enumerate(strict.parts)])
        self.diagonal = frozenset([(i, i) for i in range(1, strict.length + 1)])

    def __repr__(self):
        return f"ShiftedShape({self.strict})"


# --- shifted-balanced classification ------------------------------------------


@dataclass(frozen=True)
class ShiftedClass:
    kind: str  # "type1" | "type2" | "trapezoid"
    n: int
    k: int
    nu: Optional[Partition] = None


def _balanced_square(nu: Partition, k: int) -> bool:
    """nu is balanced as a straight shape with height and width both k."""
    if k == 0:
        return nu.size == 0
    if nu.length != k or nu.part(1) != k:
        return False
    return SkewShape(nu).is_balanced()


def classify_shifted_balanced(lam: Partition) -> Optional[ShiftedClass]:
    """Type1 / Type2 / Trapezoid recognition for a strict partition."""
    if not lam.is_strict or lam.size == 0:
        raise ValueError("classification needs a nonempty strict partition")
    for n in range(lam.length, lam.part(lam.length) + lam.length):
        delta = staircase(n)
        resid = [lam.part(i) - delta.part(i) for i in range(1, n + 1)]
        if any(x < 0 for x in resid) or lam.length > n:
            continue
        if any(resid[i] < resid[i + 1] for i in range(n - 1)):
            continue
        nu = Partition(tuple(resid))
        k = nu.part(1)
        if k < n and _balanced_square(nu, k):
            return ShiftedClass("type1", n, k, nu)
        for k2 in range(0, n - 1):
            c = n - 1 - k2
            resid2 = [resid[i] - c for i in range(n)]
            if any(x < 0 for x in resid2):
                continue
            if any(resid2[i] < resid2[i + 1] for i in range(n - 1)):
                continue
            nu2 = Partition(tuple(resid2))
            if _balanced_square(nu2, k2):
                return ShiftedClass("type2", n, k2, nu2)
    n = lam.part(1)
    k = lam.length - 1
    if 0 <= k < Fraction(n, 2) and all(
        lam.part(t + 1) == n - 2 * t for t in range(k + 1)
    ):
        return ShiftedClass("trapezoid", n, k)
    return None


# --- generators and literals ----------------------------------------------------


def _partitions(max_size: int, gap: int) -> Iterator[Partition]:
    """Partitions of 1..max_size boxes whose parts each fall at least gap
    below the one before: all partitions for gap 0, strict ones for gap 1."""

    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p - gap, acc)
            acc.pop()

    for n in range(1, max_size + 1):
        yield from rec(n, n, [])


def iter_partitions(max_size: int) -> Iterator[Partition]:
    yield from _partitions(max_size, 0)


def iter_strict_partitions(max_size: int) -> Iterator[Partition]:
    yield from _partitions(max_size, 1)


def iter_connected_skew_shapes(max_boxes: int) -> Iterator[SkewShape]:
    """Connected skew shapes with at most max_boxes boxes, up to translation.

    Rows are built top-down as column intervals (lo, hi] with lo and hi
    weakly decreasing, each sharing a column with the row above.  Since lo
    is weakly decreasing, a shape is canonical when its last row starts at
    column 1.
    """

    def rec(rows, used):
        yield rows
        lo, hi = rows[-1]
        for hi2 in range(hi, lo, -1):
            for lo2 in range(min(lo, hi2 - 1), -1, -1):
                if used + hi2 - lo2 > max_boxes:
                    break
                rows.append((lo2, hi2))
                yield from rec(rows, used + hi2 - lo2)
                rows.pop()

    for b in range(1, max_boxes + 1):
        for lo in range(0, b):
            for rows in rec([(lo, b)], b - lo):
                if rows[-1][0] == 0:
                    inner = Partition(tuple([r[0] for r in rows]))
                    yield SkewShape(Partition(tuple([r[1] for r in rows])), inner)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return EMPTY
    try:
        parts = tuple([int(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(
            f"bad partition {text!r}: parts are comma-separated integers"
        ) from None
    return Partition(parts)


def parse_shape(literal: str):
    """Shape literals: "skew:4,3,3,3/2,2", "straight:3,2", "shifted:3,2,1"."""
    kind, _, rest = literal.partition(":")
    kind = kind.strip().lower()
    if kind == "skew":
        outer_s, _, inner_s = rest.partition("/")
        return SkewShape(parse_partition(outer_s), parse_partition(inner_s))
    if kind == "straight":
        return SkewShape(parse_partition(rest))
    if kind == "shifted":
        return ShiftedShape(parse_partition(rest))
    raise ValueError(f"unknown shape literal {literal!r}")
