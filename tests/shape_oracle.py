"""Reference route for the outward corners of skew and shifted shapes.

The library reads a skew shape's corners straight off the rows' column
intervals and has no use for shifted corners.  This module keeps the
lattice-path formulation of both, which the skew corners must agree with: an
ideal's border is walked as a monotone path from the southwest end to the
northeast end (with a west/north zigzag along the diagonal in the shifted
case), an outward corner is a north-then-east (SE) or east-then-north (NW)
turn of a shape's border path, and a corner lies on an ideal's border when
both of its steps are steps of the ideal's path.

It also holds what the tests of the rook lemmas use: the rook statistic
R_ij over J(P), the rook placements of skew and shifted shapes, the stretch
of a skew shape, and a text rendering of an ideal; the edge density c of
each shifted-balanced class by the paper's formulas; and ``skew_shapes``,
an enumeration of all skew shapes, connected or not, built from row
lengths and row starts rather than from the library's generator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from cdeposets.shapes import Partition, ShiftedShape, SkewShape, classify_shifted_balanced

from dense_oracle import dense_solve


def _row_counts(shape, L, idx, n_rows: int) -> list[int]:
    """Boxes of ideal idx in each row, by one pass over the boxes."""
    mask = L.ideals[idx]
    counts = [0] * n_rows
    for k, (i, _) in enumerate(shape.boxes):
        if mask >> k & 1:
            counts[i - 1] += 1
    return counts


def _steps(pts):
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


# --- skew shapes ---------------------------------------------------------------


def skew_rows(shape) -> list[tuple[int, int]]:
    """The column interval (lo, hi] of each row of a skew shape lambda/nu,
    from its first nonempty row to its last, translated so that the last
    one starts at column 0: read off the two partitions."""
    outer, inner = shape.outer.parts, shape.inner.parts + (0,) * shape.outer.length
    rows = [(lo, hi) for lo, hi in zip(inner, outer)]
    while rows and rows[0][0] == rows[0][1]:
        rows.pop(0)
    while rows and rows[-1][0] == rows[-1][1]:
        rows.pop()
    shift = rows[-1][0] if rows else 0
    return [(lo - shift, hi - shift) for lo, hi in rows]


def skew_shapes(max_boxes: int) -> list[SkewShape]:
    """Every skew shape with 1..max_boxes boxes, no empty row and at most
    max_boxes columns, with its last row starting at column 0.

    A shape is a composition of row lengths together with weakly decreasing
    row starts ending at 0 whose row ends also weakly decrease."""
    out = []
    for size in range(1, max_boxes + 1):
        for cuts in range(1 << size - 1):
            lengths, run = [], 1
            for k in range(size - 1):
                if cuts >> k & 1:
                    lengths.append(run)
                    run = 0
                run += 1
            lengths.append(run)
            for starts in combinations_with_replacement(range(max_boxes), len(lengths) - 1):
                lo = sorted(starts, reverse=True) + [0]
                hi = [s + n for s, n in zip(lo, lengths)]
                if hi[0] <= max_boxes and all(x >= y for x, y in zip(hi, hi[1:])):
                    out.append(SkewShape(Partition(tuple(hi)), Partition(tuple(lo))))
    return out


def skew_border_path(shape, cols) -> list[tuple[int, int]]:
    """Monotone path from (a,0) to (0,b) tracing the SE boundary of cols."""
    cols = list(cols)
    pts = [(shape.a, 0)]
    y = 0
    for i in range(shape.a, 0, -1):
        target = cols[i - 1]
        while y < target:
            y += 1
            pts.append((i, y))
        pts.append((i - 1, y))
    while y < shape.b:
        y += 1
        pts.append((0, y))
    return pts


def skew_corners(shape):
    inner, outer = zip(*skew_rows(shape)) if shape.boxes else ((), ())
    out = [("NW", pt) for pt in _turns(skew_border_path(shape, inner), "EN")]
    out += [("SE", pt) for pt in _turns(skew_border_path(shape, outer), "NE")]
    return out


def skew_corners_attacking(shape, i: int, j: int):
    out = []
    for kind, (x, y) in skew_corners(shape):
        if kind == "NW" and x <= i - 1 and y <= j - 1:
            out.append((kind, (x, y)))
        elif kind == "SE" and x >= i and y >= j:
            out.append((kind, (x, y)))
    return out


def skew_contained_corners(shape, L, idx: int):
    counts = _row_counts(shape, L, idx, shape.a)
    cols = [lo + k for (lo, _), k in zip(skew_rows(shape), counts)]
    steps = _steps(skew_border_path(shape, cols))
    out = []
    for kind, (x, y) in skew_corners(shape):
        if kind == "SE":
            need = (((x + 1, y), (x, y)), ((x, y), (x, y + 1)))
        else:
            need = (((x, y - 1), (x, y)), ((x, y), (x - 1, y)))
        if all(s in steps for s in need):
            out.append((kind, (x, y)))
    return out


# --- shifted shapes ------------------------------------------------------------


def shifted_border_path(shape, nu_parts) -> list[tuple[int, int]]:
    """Path of the ideal with row counts nu_parts: west/north zigzag along the
    diagonal from (n, n) up to (m, m) with m = len(nu), then the usual
    staircase, ending with an east run to (0, lambda_1)."""
    nu = [p for p in nu_parts if p]
    n = shape.strict.length
    m = len(nu)
    pts = [(n, n)]
    for i in range(n, m, -1):
        pts.append((i, i - 1))
        pts.append((i - 1, i - 1))
    y = m
    for i in range(m, 0, -1):
        target = i + nu[i - 1] - 1
        while y < target:
            y += 1
            pts.append((i, y))
        pts.append((i - 1, y))
    lam1 = shape.strict.part(1)
    while y < lam1:
        y += 1
        pts.append((0, y))
    return pts


def shifted_corners(shape):
    return _turns(shifted_border_path(shape, shape.strict.parts), "NE")


def shifted_corners_attacking(shape, i: int, j: int):
    return [(x, y) for x, y in shifted_corners(shape) if x >= i and y >= j]


def shifted_contained_corners(shape, L, idx: int):
    counts = _row_counts(shape, L, idx, shape.strict.length)
    steps = _steps(shifted_border_path(shape, counts))
    return [
        (x, y)
        for x, y in shifted_corners(shape)
        if ((x + 1, y), (x, y)) in steps and ((x, y), (x, y + 1)) in steps
    ]


# --- the rook lemmas -------------------------------------------------------------


def _attacks(kind: str, pt: tuple[int, int], i: int, j: int) -> bool:
    """Corner pt is in C_ij: an NW corner strictly northwest of box [i,j]'s
    center, an SE corner strictly southeast of it."""
    x, y = pt
    return (x < i and y < j) if kind == "NW" else (x >= i and y >= j)


def rook(shape, L, i: int, j: int):
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


def rook_placement(shape: SkewShape) -> dict[tuple[int, int], Fraction]:
    """Coefficients with row sums b, column sums a, and (for balanced shapes)
    zero aggregate over every corner's attack set; found by the dense
    rational solve, free variables zero."""
    if not shape.is_connected():
        raise ValueError("rook placement needs a connected shape")
    boxes = shape.boxes
    rows_sys = [[int(x == i) for x, _ in boxes] for i in range(1, shape.a + 1)]
    rows_sys += [[int(y == j) for _, y in boxes] for j in range(1, shape.b + 1)]
    rhs = [shape.b] * shape.a + [shape.a] * shape.b
    if shape.is_balanced():
        for kind, pt in shape.corners():
            rows_sys.append([int(_attacks(kind, pt, i, j)) for i, j in boxes])
            rhs.append(0)
    sol = dense_solve(rows_sys, rhs)
    if sol is None:
        raise ValueError(f"no rook placement exists for {shape}")
    return dict(zip(boxes, sol))


def shifted_rook_placement(lam: Partition, cls=None) -> dict[tuple[int, int], Fraction]:
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
    for x, y in shifted_corners(shape):
        if sum(r[(i, j)] for i, j in shape.boxes if x >= i and y >= j) != 0:
            raise AssertionError(f"condition (c) fails at corner {(x, y)}")


def shifted_class_density(cls) -> Fraction:
    """The edge density c of a shifted-balanced class: (n + 1 + k)/4 for
    Type 1, n/2 for Type 2, and |lambda|/(n + 1) for the trapezoid
    lambda = (n, n - 2, ..., n - 2k)."""
    if cls.kind == "type1":
        return Fraction(cls.n + 1 + cls.k, 4)
    if cls.kind == "type2":
        return Fraction(cls.n, 2)
    return Fraction(sum(range(cls.n - 2 * cls.k, cls.n + 1, 2)), cls.n + 1)


def stretch(shape: SkewShape, a: int, b: int) -> SkewShape:
    """Replace each box by an a x b rectangle ((lambda/nu) o b^a)."""
    outer = []
    inner = []
    for i in range(1, shape.outer.length + 1):
        outer.extend([shape.outer.part(i) * b] * a)
        inner.extend([shape.inner.part(i) * b] * a)
    return SkewShape(Partition(tuple(outer)), Partition(tuple(inner)))


def render_ideal(shape, L, idx: int) -> str:
    """Text rendering of an ideal: '#' in-ideal, '.' rest of shape."""
    mask = L.ideals[idx]
    grid = [[" "] * max(shape._hi, default=0) for _ in shape._hi]
    for k, (i, j) in enumerate(shape.boxes):
        grid[i - 1][j - 1] = "#" if mask >> k & 1 else "."
    return "\n".join("".join(row).rstrip() for row in grid)
