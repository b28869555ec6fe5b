"""Reference route for the outward corners of skew and shifted shapes.

The library reads every corner straight off the rows' column intervals.
This module keeps the lattice-path formulation it must agree with: an
ideal's border is walked as a monotone path from the southwest end to the
northeast end (with a west/north zigzag along the diagonal in the shifted
case), an outward corner is a north-then-east (SE) or east-then-north (NW)
turn of a shape's border path, and a corner lies on an ideal's border when
both of its steps are steps of the ideal's path.
"""

from __future__ import annotations


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
    out = [("NW", pt) for pt in _turns(skew_border_path(shape, shape.inner_cols), "EN")]
    out += [("SE", pt) for pt in _turns(skew_border_path(shape, shape.outer_cols), "NE")]
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
    cols = [lo + k for lo, k in zip(shape.inner_cols, _row_counts(shape, L, idx, shape.a))]
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
    n = shape.n_rows
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
    steps = _steps(shifted_border_path(shape, _row_counts(shape, L, idx, shape.n_rows)))
    return [
        (x, y)
        for x, y in shifted_corners(shape)
        if ((x + 1, y), (x, y)) in steps and ((x, y), (x, y + 1)) in steps
    ]
