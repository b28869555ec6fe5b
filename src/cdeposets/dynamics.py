"""Rowmotion, gyration, rank-permuted rowmotion, orbits, homomesy.

Maps on J(P) are plain permutation arrays over ideal indices (the lattices
are explicit anyway); bijectivity is validated once at construction.  A
toggle word is applied right-to-left, matching function composition: the
last element of the word is toggled first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distributions import Distribution
from .ideals import IdealLattice, toggle
from .posets import rank_info
from .serialize import rat_str


def rowmotion(L: IdealLattice, i: int) -> int:
    """Down-closure of the minimal elements of the complement."""
    P = L.base
    mask = L.ideals[i]
    new = 0
    for p in range(P.n):
        if not mask >> p & 1 and P.strict_down[p] & ~mask == 0:
            new |= 1 << p | P.strict_down[p]
    return L.index[new]


def apply_toggle_word(L: IdealLattice, word: Sequence[int], i: int) -> int:
    """Apply toggles right-to-left: the last letter acts first."""
    for p in reversed(word):
        i = toggle(L, i, p)
    return i


def rowmotion_map(L: IdealLattice) -> list[int]:
    return [rowmotion(L, i) for i in range(L.n)]


def rowmotion_via_linear_extension(L: IdealLattice, extension: Sequence[int]) -> list[int]:
    """Rowmotion as the toggle word of a linear extension (for cross-checks)."""
    return [apply_toggle_word(L, extension, i) for i in range(L.n)]


def _rank_blocks(L: IdealLattice):
    info = rank_info(L.base)
    if not info.is_ranked:
        raise ValueError("rank toggles need a ranked base poset")
    blocks = [[] for _ in range(info.top_rank + 1)]
    for p in range(L.base.n):
        blocks[info.rank[p]].append(p)
    return blocks


def rank_toggle(L: IdealLattice, blocks, r: int, i: int) -> int:
    """Toggle every element of rank r (they commute)."""
    for p in blocks[r]:
        i = toggle(L, i, p)
    return i


def rank_permuted_rowmotion_map(L: IdealLattice, sigma: Sequence[int]) -> list[int]:
    """Phi_row(sigma) = tau_{sigma(0)} o ... o tau_{sigma(r)} (rightmost first).

    sigma = (0, 1, ..., r) gives rowmotion; sigma = (1, 3, 5, ..., 0, 2, 4, ...)
    gives gyration.
    """
    blocks = _rank_blocks(L)
    r = len(blocks) - 1
    if sorted(sigma) != list(range(r + 1)):
        raise ValueError(f"sigma must be a permutation of 0..{r}")
    out = []
    for i in range(L.n):
        j = i
        for s in reversed(list(sigma)):
            j = rank_toggle(L, blocks, s, j)
        out.append(j)
    return out


def gyration_sigma(num_ranks: int) -> tuple[int, ...]:
    odds = tuple(range(1, num_ranks, 2))
    evens = tuple(range(0, num_ranks, 2))
    return odds + evens


def gyration_map(L: IdealLattice) -> list[int]:
    """Toggle all even ranks, then all odd ranks."""
    blocks = _rank_blocks(L)
    return rank_permuted_rowmotion_map(L, gyration_sigma(len(blocks)))


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> list[int]:
        return [len(o) for o in self.orbits]

    def order(self) -> int:
        from math import lcm

        return lcm(*self.sizes) if self.orbits else 1


def orbit_decomposition(L: IdealLattice, mapping: Sequence[int]) -> OrbitDecomposition:
    if sorted(mapping) != list(range(L.n)):
        raise ValueError("mapping is not a bijection on the ideals")
    seen = [False] * L.n
    orbits = []
    for s in range(L.n):
        if seen[s]:
            continue
        orbit = []
        x = s
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = mapping[x]
        orbits.append(tuple(orbit))
    return OrbitDecomposition(tuple(orbits))


def orbit_uniform(L: IdealLattice, orbit: Sequence[int]) -> Distribution:
    """Uniform on the orbit, zero outside."""
    w = [Fraction(0)] * L.n
    share = Fraction(1, len(orbit))
    for i in orbit:
        w[i] += share
    return Distribution(w)


def homomesy_report(L: IdealLattice, mapping: Sequence[int], stat, expected=None) -> dict:
    """Per-orbit exact averages of a statistic; homomesic iff all agree.

    ``expected`` (e.g. a tCDE certificate constant) adds a matches_expected
    flag asserting that every orbit average equals it.
    """
    dec = orbit_decomposition(L, mapping)
    averages = [
        sum((Fraction(stat[i]) for i in orbit), Fraction(0)) / len(orbit)
        for orbit in dec.orbits
    ]
    homomesic = len(set(averages)) <= 1
    report = {
        "orbit_sizes": dec.sizes,
        "orbit_averages": [rat_str(a) for a in averages],
        "homomesic": homomesic,
    }
    if homomesic and averages:
        report["constant"] = rat_str(averages[0])
    if expected is not None:
        report["expected"] = rat_str(expected)
        report["matches_expected"] = all(a == Fraction(expected) for a in averages)
    return report


def antichain_cardinality(L: IdealLattice):
    """#max(I), which equals the down-degree in J(P)."""
    return L.ddeg


def signed_toggleability(L: IdealLattice, p: int):
    return tuple([a - b for a, b in zip(L.t_plus[p], L.t_minus[p])])
