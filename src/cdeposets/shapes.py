"""Partitions, skew and shifted shapes, balancedness, rooks, and placements.

Matrix coordinates throughout: lattice point (i, j) has i growing south and
j growing east, the bounding box's northwest point is (0, 0), and box [i, j]
is the unit box whose southeast corner is the point (i, j).  Order ideals of
a shape's box poset correspond to monotone lattice paths from (a, 0) to
(0, b) (with an extra west/north zigzag along the diagonal in the shifted
case), and outward corners of the borders are read off those paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import linalg
from .ideals import IdealLattice
from .posets import Poset, build_poset


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple([int(p) for p in self.parts if p != 0])
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

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

    def __add__(self, other: "Partition") -> "Partition":
        n = max(self.length, other.length)
        return Partition(tuple([self.part(i) + other.part(i) for i in range(1, n + 1)]))

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


EMPTY = Partition(())


def rectangle(a: int, b: int) -> Partition:
    """b^a: a rows of length b."""
    return Partition((b,) * a)


def staircase(d: int) -> Partition:
    """delta_d = (d, d-1, ..., 1)."""
    return Partition(tuple(range(d, 0, -1)))


def stretch(shape: "SkewShape", a: int, b: int) -> "SkewShape":
    """Replace each box by an a x b rectangle ((lambda/nu) o b^a)."""
    outer = []
    inner = []
    for i in range(1, shape.raw_rows + 1):
        outer.extend([shape.outer.part(i) * b] * a)
        inner.extend([shape.inner.part(i) * b] * a)
    return SkewShape(Partition(tuple(outer)), Partition(tuple(inner)))


class _Diagram:
    """What skew and shifted diagrams share: ``boxes`` in row reading order,
    ``box_index`` (box -> position in ``boxes``), and ``diagonal``, the
    main-diagonal boxes that the shifted rook statistic treats apart (empty
    for skew shapes)."""

    boxes: tuple[tuple[int, int], ...]
    box_index: dict[tuple[int, int], int]
    diagonal: frozenset[tuple[int, int]] = frozenset()

    @property
    def n_boxes(self) -> int:
        return len(self.boxes)

    def __contains__(self, box) -> bool:
        return box in self.box_index

    def poset(self) -> Poset:
        """Box poset: u <= v iff v is weakly southeast of u."""
        rels = []
        for i, j in self.boxes:
            if (i, j + 1) in self.box_index:
                rels.append((self.box_index[(i, j)], self.box_index[(i, j + 1)]))
            if (i + 1, j) in self.box_index:
                rels.append((self.box_index[(i, j)], self.box_index[(i + 1, j)]))
        return build_poset(self.n_boxes, rels)

    def render_ideal(self, L: IdealLattice, idx: int) -> str:
        """Debug text rendering of an ideal: '#' in-ideal, '.' rest of shape."""
        mask = L.ideals[idx]
        height = max([i for i, _ in self.boxes], default=0)
        width = max([j for _, j in self.boxes], default=0)
        grid = [[" "] * width for _ in range(height)]
        for k, (i, j) in enumerate(self.boxes):
            grid[i - 1][j - 1] = "#" if mask >> k & 1 else "."
        return "\n".join("".join(row).rstrip() for row in grid)


class SkewShape(_Diagram):
    """Skew shape lambda/nu, normalized by translation.

    ``outer_cols[i]`` / ``inner_cols[i]`` give the border column counts of
    row i (1-indexed) inside the normalized a x b bounding box.
    """

    def __init__(self, outer: Partition, inner: Partition = EMPTY):
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        self.outer = outer
        self.inner = inner
        self.raw_rows = outer.length
        occupied = [
            i for i in range(1, outer.length + 1) if outer.part(i) > inner.part(i)
        ]
        if not occupied:
            self.a = 0
            self.b = 0
            self.outer_cols = ()
            self.inner_cols = ()
            self.boxes = ()
        else:
            row_off = occupied[0] - 1
            col_off = min(inner.part(i) for i in occupied)
            last = occupied[-1]
            self.a = last - row_off
            outer_cols = []
            inner_cols = []
            for i in range(row_off + 1, last + 1):
                o = max(outer.part(i) - col_off, 0)
                n = max(inner.part(i) - col_off, 0)
                outer_cols.append(o)
                inner_cols.append(max(min(n, o), 0))
            self.outer_cols = tuple(outer_cols)
            self.inner_cols = tuple(inner_cols)
            self.b = max(outer_cols)
            self.boxes = tuple(
                [
                    (i, j)
                    for i in range(1, self.a + 1)
                    for j in range(
                        self.inner_cols[i - 1] + 1, self.outer_cols[i - 1] + 1
                    )
                ]
            )
        self.box_index = {box: k for k, box in enumerate(self.boxes)}

    def is_connected(self) -> bool:
        if self.n_boxes == 0:
            return False
        for i in range(self.a - 1):
            lo_next = self.inner_cols[i + 1]
            hi_next = self.outer_cols[i + 1]
            lo, hi = self.inner_cols[i], self.outer_cols[i]
            if hi_next <= lo_next or hi <= lo:
                return False
            # rows i+1 and i+2 must share a column
            if lo + 1 > hi_next or lo_next + 1 > hi:
                return False
        return True

    # --- lattice paths and corners ------------------------------------

    def border_path(self, cols) -> list[tuple[int, int]]:
        """Monotone path from (a,0) to (0,b) tracing the SE boundary of cols."""
        cols = list(cols)
        pts = [(self.a, 0)]
        y = 0
        for i in range(self.a, 0, -1):
            target = cols[i - 1]
            while y < target:
                y += 1
                pts.append((i, y))
            pts.append((i - 1, y))
        while y < self.b:
            y += 1
            pts.append((0, y))
        return pts

    def ideal_cols(self, L: IdealLattice, idx: int) -> list[int]:
        """Column counts of the partition rho for lattice ideal idx."""
        mask = L.ideals[idx]
        cols = list(self.inner_cols)
        for k, (i, _) in enumerate(self.boxes):
            if mask >> k & 1:
                cols[i - 1] += 1
        return cols

    def corners(self) -> list[tuple[str, tuple[int, int]]]:
        """Outward corners: ("NW", pt) on the inner border, ("SE", pt) on the outer."""
        out = []
        for pt in _turns(self.border_path(self.inner_cols), "EN"):
            out.append(("NW", pt))
        for pt in _turns(self.border_path(self.outer_cols), "NE"):
            out.append(("SE", pt))
        return out

    def is_balanced(self) -> bool:
        """All outward corners on the main anti-diagonal (connected shapes only)."""
        if not self.is_connected():
            raise ValueError("balancedness is defined for connected shapes")
        a, b = self.a, self.b
        return all(b * x + a * y == a * b for _, (x, y) in self.corners())

    def corners_attacking(self, i: int, j: int):
        """C_ij: inner-border corners strictly northwest of box [i,j]'s center
        plus outer-border corners strictly southeast of it.

        These are exactly the corners whose missing toggleability terms skew
        the rook sum: R_ij(I) = 1 + #(corners of C_ij on I's path).
        """
        out = []
        for kind, (x, y) in self.corners():
            if kind == "NW" and x <= i - 1 and y <= j - 1:
                out.append((kind, (x, y)))
            elif kind == "SE" and x >= i and y >= j:
                out.append((kind, (x, y)))
        return out

    def contained_corners(self, L: IdealLattice, idx: int):
        """Outward corners whose two steps both lie on ideal idx's path."""
        steps = _step_set(self.border_path(self.ideal_cols(L, idx)))
        out = []
        for kind, (x, y) in self.corners():
            if kind == "SE":
                need = (((x + 1, y), (x, y)), ((x, y), (x, y + 1)))
            else:
                need = (((x, y - 1), (x, y)), ((x, y), (x - 1, y)))
            if all(s in steps for s in need):
                out.append((kind, (x, y)))
        return out

    def __repr__(self):
        return f"SkewShape({self.outer}/{self.inner})"


def _step_set(pts):
    return {(pts[k], pts[k + 1]) for k in range(len(pts) - 1)}


def _turns(pts, pattern: str) -> list[tuple[int, int]]:
    """Lattice points where a 'NE' (north-then-east) or 'EN' turn happens."""
    out = []
    for k in range(1, len(pts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = pts[k - 1], pts[k], pts[k + 1]
        first = "N" if x1 == x0 - 1 and y1 == y0 else ("E" if y1 == y0 + 1 else "?")
        second = "N" if x2 == x1 - 1 and y2 == y1 else ("E" if y2 == y1 + 1 else "?")
        if first + second == pattern:
            out.append((x1, y1))
    return out


class ShiftedShape(_Diagram):
    """Shifted Young diagram of a strict partition; row i occupies columns
    i .. i + lambda_i - 1."""

    def __init__(self, strict: Partition):
        if not strict.is_strict:
            raise ValueError(f"{strict} is not strict")
        self.strict = strict
        self.n_rows = strict.length
        self.boxes = tuple(
            [
                (i, j)
                for i in range(1, self.n_rows + 1)
                for j in range(i, i + strict.part(i))
            ]
        )
        self.box_index = {box: k for k, box in enumerate(self.boxes)}
        self.diagonal = frozenset([(i, i) for i in range(1, self.n_rows + 1)])

    def border_path(self, nu: Partition) -> list[tuple[int, int]]:
        """Path of the ideal nu: west/north zigzag along the diagonal from
        (n, n) up to (m, m) with m = len(nu), then the usual staircase, ending
        with an east run to (0, lambda_1)."""
        n = self.n_rows
        m = nu.length
        pts = [(n, n)]
        for i in range(n, m, -1):
            pts.append((i, i - 1))
            pts.append((i - 1, i - 1))
        y = m
        for i in range(m, 0, -1):
            target = i + nu.part(i) - 1
            while y < target:
                y += 1
                pts.append((i, y))
            pts.append((i - 1, y))
        lam1 = self.strict.part(1)
        while y < lam1:
            y += 1
            pts.append((0, y))
        return pts

    def ideal_partition(self, L: IdealLattice, idx: int) -> Partition:
        mask = L.ideals[idx]
        counts = [0] * self.n_rows
        for k, (i, _) in enumerate(self.boxes):
            if mask >> k & 1:
                counts[i - 1] += 1
        return Partition(tuple(counts))

    def corners(self) -> list[tuple[int, int]]:
        """Southeast outward corners (north-then-east turns on the SE border)."""
        return _turns(self.border_path(self.strict), "NE")

    def corners_attacking(self, i: int, j: int) -> list[tuple[int, int]]:
        """C^shift_ij: corners strictly southeast of box [i,j]'s center."""
        return [(x, y) for x, y in self.corners() if x >= i and y >= j]

    def contained_corners(self, L: IdealLattice, idx: int) -> list[tuple[int, int]]:
        nu = self.ideal_partition(L, idx)
        steps = _step_set(self.border_path(nu))
        out = []
        for x, y in self.corners():
            if ((x + 1, y), (x, y)) in steps and ((x, y), (x, y + 1)) in steps:
                out.append((x, y))
        return out

    def __repr__(self):
        return f"ShiftedShape({self.strict})"


# --- rook statistics ----------------------------------------------------------


def rook(shape, L: IdealLattice, i: int, j: int):
    """The rook statistic R_ij over J(P) of a skew or shifted shape.

    For a shifted shape this is R^shift_ij: the two negative sums skip the
    main-diagonal boxes.  Each of the four sums is a popcount of the
    ideal's addable (``up``) or removable (``down``) mask against the boxes
    it counts.
    """
    if (i, j) not in shape:
        raise ValueError(f"[{i},{j}] is not a box of {shape}")
    plus_pos = minus_pos = minus_neg = plus_neg = 0
    for k, (x, y) in enumerate(shape.boxes):
        off_diagonal = (x, y) not in shape.diagonal
        if x <= i and y <= j:
            plus_pos |= 1 << k
        if x >= i and y >= j:
            minus_pos |= 1 << k
        if x < i and y < j and off_diagonal:
            minus_neg |= 1 << k
        if x > i and y > j and off_diagonal:
            plus_neg |= 1 << k
    vals = []
    for u, d in zip(L.up, L.down):
        v = (u & plus_pos).bit_count() - (u & plus_neg).bit_count()
        vals.append(Fraction(v + (d & minus_pos).bit_count() - (d & minus_neg).bit_count()))
    return tuple(vals)


# --- shifted-balanced classification ------------------------------------------


@dataclass(frozen=True)
class ShiftedClass:
    kind: str  # "type1" | "type2" | "trapezoid"
    n: int
    k: int
    nu: Optional[Partition] = None

    def edge_density(self) -> Fraction:
        if self.kind == "type1":
            return Fraction(self.n + 1 + self.k, 4)
        if self.kind == "type2":
            return Fraction(self.n, 2)
        lam_size = sum(self.n - 2 * t for t in range(self.k + 1))
        return Fraction(lam_size, self.n + 1)


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


# --- rook placements -----------------------------------------------------------


def rook_placement(shape: SkewShape) -> dict[tuple[int, int], Fraction]:
    """Coefficients with row sums b, column sums a, and (for balanced shapes)
    zero aggregate over every corner's attack set; found by exact linear solve."""
    if not shape.is_connected():
        raise ValueError("rook placement needs a connected shape")
    boxes = shape.boxes
    col_of = {box: k for k, box in enumerate(boxes)}
    rows_sys = []
    rhs = []
    for i in range(1, shape.a + 1):
        rows_sys.append(
            [1 if x == i else 0 for x, _ in boxes]
        )
        rhs.append(shape.b)
    for j in range(1, shape.b + 1):
        rows_sys.append([1 if y == j else 0 for _, y in boxes])
        rhs.append(shape.a)
    if shape.is_balanced():
        for corner in shape.corners():
            row = [0] * len(boxes)
            for i, j in boxes:
                if corner in shape.corners_attacking(i, j):
                    row[col_of[(i, j)]] = 1
            rows_sys.append(row)
            rhs.append(0)
    sol = linalg.solve(rows_sys, rhs)
    if sol is None:
        raise ValueError(f"no rook placement exists for {shape}")
    return {box: sol[col_of[box]] for box in boxes}


def shifted_rook_placement(
    lam: Partition, cls: Optional[ShiftedClass] = None
) -> dict[tuple[int, int], Fraction]:
    """The explicit Type1/Type2 placement; conditions (a),(b),(c) are
    re-verified before returning."""
    if cls is None:
        cls = classify_shifted_balanced(lam)
    if cls is None or cls.kind not in {"type1", "type2"}:
        raise ValueError(f"{lam} is not shifted-balanced of Type 1 or 2")
    shape = ShiftedShape(lam)
    n, k = cls.n, cls.k
    lam1 = lam.part(1)
    r = {box: Fraction(0) for box in shape.boxes}
    for i in range(1, k + 1):
        r[(i, i)] = Fraction(1 + 2 * i - lam1)
        r[(i, i + 1)] = Fraction(lam1 - 1 - 2 * i)
    for i in range(k + 1, n):
        r[(i, i)] = Fraction(3 + 2 * k - lam1)
        r[(i, i + 1)] = Fraction(lam1 - 1 - 2 * k)
    r[(n, n)] = Fraction(3 + 2 * k - lam1)
    if cls.kind == "type2":
        for t in range(1, n - k):
            r[(n, n + t)] = Fraction(2)
    for i in range(1, k + 1):
        r[(i, lam1 + 1 - i)] = Fraction(2)
    _check_shifted_placement(shape, r)
    return r


def _check_shifted_placement(shape: ShiftedShape, r) -> None:
    for i, j in shape.boxes:
        if i == j:
            nw = sum(v for (x, y), v in r.items() if x <= i and y <= j)
            se = sum(v for (x, y), v in r.items() if x >= i and y >= j)
            if nw + se != 4:
                raise AssertionError(f"condition (b) fails at diagonal box [{i},{i}]")
        else:
            col = sum(v for (x, y), v in r.items() if y == j)
            row = sum(v for (x, y), v in r.items() if x == i)
            if col != 2 or row != 2:
                raise AssertionError(f"condition (a) fails at box [{i},{j}]")
    for corner in shape.corners():
        agg = sum(
            r[(i, j)]
            for i, j in shape.boxes
            if corner in shape.corners_attacking(i, j)
        )
        if agg != 0:
            raise AssertionError(f"condition (c) fails at corner {corner}")


# --- generators and literals ----------------------------------------------------


def iter_partitions(max_size: int, min_size: int = 1) -> Iterator[Partition]:
    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p, acc)
            acc.pop()

    for n in range(min_size, max_size + 1):
        yield from rec(n, n, [])


def iter_strict_partitions(max_size: int, min_size: int = 1) -> Iterator[Partition]:
    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield Partition(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p - 1, acc)
            acc.pop()

    for n in range(min_size, max_size + 1):
        yield from rec(n, n, [])


def iter_connected_skew_shapes(max_boxes: int) -> Iterator[SkewShape]:
    """Connected skew shapes with at most max_boxes boxes, up to translation.

    Rows are built top-down as column intervals [lo+1, hi] with lo and hi
    weakly decreasing and consecutive rows overlapping; normalization makes
    the last row start at column 1.
    """

    def rec(rows, used):
        lo, hi = rows[-1]
        yield tuple(rows)
        for hi2 in range(hi, 0, -1):
            for lo2 in range(min(lo, hi2 - 1), -1, -1):
                size = hi2 - lo2
                if used + size > max_boxes:
                    continue
                if hi2 <= lo:  # must overlap previous row
                    continue
                rows.append((lo2, hi2))
                yield from rec(rows, used + size)
                rows.pop()

    for b in range(1, max_boxes + 1):
        for lo in range(0, b):
            for raw in rec([(lo, b)], b - lo):
                inner = Partition(tuple([r[0] for r in raw]))
                outer = Partition(tuple([r[1] for r in raw]))
                if raw[-1][0] == 0:  # canonical translation
                    yield SkewShape(outer, inner)


def iter_skew_shapes(max_boxes: int) -> Iterator[SkewShape]:
    """Skew shapes (possibly disconnected) with at most max_boxes boxes,
    canonicalized so some row starts at column 1."""

    def rec(rows, used):
        yield tuple(rows)
        lo, hi = rows[-1]
        for hi2 in range(hi, 0, -1):
            for lo2 in range(min(lo, hi2 - 1), -1, -1):
                size = hi2 - lo2
                if used + size > max_boxes:
                    continue
                rows.append((lo2, hi2))
                yield from rec(rows, used + size)
                rows.pop()

    for b in range(1, max_boxes + 1):
        for lo in range(0, b):
            for raw in rec([(lo, b)], b - lo):
                if min(r[0] for r in raw) == 0:
                    inner = Partition(tuple([r[0] for r in raw]))
                    outer = Partition(tuple([r[1] for r in raw]))
                    yield SkewShape(outer, inner)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return EMPTY
    return Partition(tuple([int(x) for x in text.split(",")]))


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
