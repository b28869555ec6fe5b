"""Rowmotion, gyration, rank-permuted rowmotion, orbits, homomesy.

Maps on J(P) are plain permutation arrays over ideal indices (the lattices
are explicit anyway); bijectivity is validated once at construction.  A
toggle word is applied right-to-left, matching function composition: the
last element of the word is toggled first.

The maps read the per-ideal label masks of the lattice (``L.up``, the
addable elements, and ``L.down``, the removable ones) instead of toggling
element by element:

* rowmotion sends I to the ideal generated by the minimal elements of its
  complement, and those are that ideal's maximal elements, so the map is
  one lookup of ``up[i]`` among the ``down`` masks per ideal;
* elements of one rank are pairwise incomparable, so toggling a whole rank
  r flips exactly the addable and removable elements of rank r at once,
  ``mask ^ ((up | down) & rank_mask[r])``.  Every cover of a ranked poset
  joins two adjacent ranks, so the toggles of non-adjacent ranks commute
  and a run of pairwise non-adjacent ranks in the word flips at once under
  the union of their masks: a rank-permuted rowmotion is one index array per
  such run, composed (gyration, evens then odds, takes two).

The per-element routes that the tests check these maps against (rowmotion
as the down-closure of the minimal elements of the complement, single
toggles and toggle words) live with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .ideals import IdealLattice
from .posets import rank_info


def rowmotion_map(L: IdealLattice) -> list[int]:
    by_max = {d: j for j, d in enumerate(L.down)}
    return [by_max[u] for u in L.up]


def _rank_masks(L: IdealLattice) -> list[int]:
    """Bitmask of the elements of each rank of the base poset."""
    info = rank_info(L.base)
    if not info.is_ranked:
        raise ValueError("rank toggles need a ranked base poset")
    masks = [0] * (info.top_rank + 1)
    for p in range(L.base.n):
        masks[info.rank[p]] |= 1 << p
    return masks


def rank_permuted_rowmotion_map(L: IdealLattice, sigma: Sequence[int]) -> list[int]:
    """Phi_row(sigma) = tau_{sigma(0)} o ... o tau_{sigma(r)} (rightmost first).

    sigma = (0, 1, ..., r) gives rowmotion; sigma = (1, 3, 5, ..., 0, 2, 4, ...)
    gives gyration.
    """
    return _rank_permuted(L, _rank_masks(L), sigma)


def _rank_permuted(L: IdealLattice, masks: list[int], sigma: Sequence[int]) -> list[int]:
    r = len(masks) - 1
    if sorted(sigma) != list(range(r + 1)):
        raise ValueError(f"sigma must be a permutation of 0..{r}")
    # read right to left, each run of pairwise non-adjacent ranks is one flip
    runs = []
    for s in reversed(list(sigma)):
        if runs and not any(abs(s - t) == 1 for t in runs[-1]):
            runs[-1].append(s)
        else:
            runs.append([s])
    flips = [u | d for u, d in zip(L.up, L.down)]
    index = L.index
    out = None
    for run in runs:
        toggled = sum([masks[s] for s in run])
        step = [index[m ^ (f & toggled)] for m, f in zip(L.ideals, flips)]
        out = step if out is None else [step[j] for j in out]
    return out


def gyration_sigma(num_ranks: int) -> tuple[int, ...]:
    odds = tuple(range(1, num_ranks, 2))
    evens = tuple(range(0, num_ranks, 2))
    return odds + evens


def gyration_map(L: IdealLattice) -> list[int]:
    """Toggle all even ranks, then all odd ranks."""
    masks = _rank_masks(L)
    return _rank_permuted(L, masks, gyration_sigma(len(masks)))


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
    """The cycles of a permutation of the ideal indices, each from its
    lowest index.  A map with n entries in 0..n-1 is a bijection exactly
    when every walk from an index not yet seen closes at its start."""
    n = L.n
    if len(mapping) != n or min(mapping) < 0 or max(mapping) >= n:
        raise ValueError("mapping is not a bijection on the ideals")
    seen = [False] * n
    orbits = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = []
        x = s
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = mapping[x]
        if x != s:
            raise ValueError("mapping is not a bijection on the ideals")
        orbits.append(tuple(orbit))
    return OrbitDecomposition(tuple(orbits))


def homomesy_report(L: IdealLattice, mapping: Sequence[int], stat) -> dict:
    """Per-orbit exact averages of an integer statistic (the callers pass
    ``ddeg``); homomesic iff all agree.  Each average is the orbit's integer
    sum over its size, written as the reduced "p/q" of ``rat_str``."""
    dec = orbit_decomposition(L, mapping)
    averages = []
    for orbit in dec.orbits:
        t, s = sum([stat[i] for i in orbit]), len(orbit)
        g = gcd(t, s)
        averages.append(f"{t // g}/{s // g}")
    homomesic = len(set(averages)) <= 1
    report = {
        "orbit_sizes": dec.sizes,
        "orbit_averages": averages,
        "homomesic": homomesic,
    }
    if homomesic and averages:
        report["constant"] = averages[0]
    return report


def antichain_cardinality(L: IdealLattice):
    """#max(I), which equals the down-degree in J(P)."""
    return L.ddeg
