"""Reference route for J(P): the element-by-element enumeration.

``build_lattice_reference`` is the straightforward formulation the library's
depth-first enumeration must agree with: a breadth-first search that tries
every element of P on every ideal, a sort keyed on the member lists, and one
pass over every (ideal, element) pair for the Hasse edges, the down-degrees
and the toggleability tables (``toggle_tables``, which the other test
oracles read as well).  ``toggle`` moves one ideal by one element, tested
against the strict down- and up-sets of P; ``rowmotion`` maps one ideal to
the down-closure of the minimal elements of its complement.
``identity_failure_from_tables`` checks a tCDE identity ideal by ideal,
the slow route for the library's quadratic-form check.
``rank_permuted_by_toggles`` applies a rank-permuted rowmotion one ``toggle``
call per element, and ``rowmotion_via_linear_extension`` applies rowmotion as
the toggle word of a linear extension.  ``orbit_uniform`` and ``dump`` build
the uniform distribution on an orbit and a plain listing of a lattice.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from cdeposets.distributions import Distribution
from cdeposets.ideals import LatticeBudgetError
from cdeposets.posets import _bits, rank_info


def build_lattice_reference(P, budget: int):
    seen = {0}
    if len(seen) > budget:
        raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for p in range(P.n):
                if not mask >> p & 1 and P.strict_down[p] & ~mask == 0:
                    new = mask | 1 << p
                    if new not in seen:
                        seen.add(new)
                        if len(seen) > budget:
                            raise LatticeBudgetError(
                                f"J(P) exceeds the ideal budget of {budget}"
                            )
                        nxt.append(new)
        frontier = nxt
    ideals = sorted(seen, key=lambda m: (m.bit_count(), _bits(m)))
    index = {m: i for i, m in enumerate(ideals)}
    t_plus, t_minus = toggle_tables(P, ideals)
    hasse = sorted(
        (i, index[mask | 1 << p], p)
        for p in range(P.n)
        for i, mask in enumerate(ideals)
        if t_plus[p][i]
    )
    ddeg = [sum(col[i] for col in t_minus) for i in range(len(ideals))]
    return SimpleNamespace(
        ideals=tuple(ideals),
        index=index,
        hasse=tuple(hasse),
        ddeg=tuple(ddeg),
        t_plus=t_plus,
        t_minus=t_minus,
    )


def identity_failure_from_tables(ref, c, kappa, scale, empty_full):
    """The per-ideal route for a tCDE identity: the index of the first ideal
    I of ``ref`` (a ``build_lattice_reference`` result) where
    c + sum_p kappa_p T_p(I) + empty_full ([I = empty] - [I = full]) differs
    from scale * ddeg(I), T_p read off the toggle tables, or None when the
    identity holds on every ideal.  A single ideal counts as full."""
    n = len(ref.ideals)
    extra = [0] * n
    extra[0] = 1
    extra[-1] = -1
    for i in range(n):
        total = c - scale * ref.ddeg[i] + empty_full * extra[i]
        for p, (plus, minus) in enumerate(zip(ref.t_plus, ref.t_minus)):
            total += kappa[p] * (plus[i] - minus[i])
        if total:
            return i
    return None


def toggle_tables(P, ideals):
    """(t_plus, t_minus): per element p, the 0/1 tuple over the given ideal
    masks of "p is addable" / "p is removable", tested element by element
    against the strict down- and up-sets of P."""
    t_plus = []
    t_minus = []
    for p in range(P.n):
        t_plus.append(
            tuple(
                [
                    int(not mask >> p & 1 and P.strict_down[p] & ~mask == 0)
                    for mask in ideals
                ]
            )
        )
        t_minus.append(
            tuple([int(mask >> p & 1 and P.strict_up[p] & mask == 0) for mask in ideals])
        )
    return tuple(t_plus), tuple(t_minus)


def rank_permuted_by_toggles(L, sigma):
    """tau_{sigma(0)} o ... o tau_{sigma(r)}, each rank toggled element by
    element with ``toggle``."""
    info = rank_info(L.base)
    out = []
    for i in range(L.n):
        for r in reversed(sigma):
            for p in range(L.base.n):
                if info.rank[p] == r:
                    i = toggle(L, i, p)
        out.append(i)
    return out


def rowmotion_via_linear_extension(L, extension):
    """Rowmotion as the toggle word of a linear extension of the base poset."""
    return [apply_toggle_word(L, extension, i) for i in range(L.n)]


def toggle(L, i: int, p: int) -> int:
    """Index of tau_p applied to ideal i (fixed point when p is stuck)."""
    P = L.base
    mask = L.ideals[i]
    if not mask >> p & 1 and P.strict_down[p] & ~mask == 0:
        return L.index[mask | 1 << p]
    if mask >> p & 1 and P.strict_up[p] & mask == 0:
        return L.index[mask & ~(1 << p)]
    return i


def rowmotion(L, i: int) -> int:
    """Down-closure of the minimal elements of the complement."""
    P = L.base
    mask = L.ideals[i]
    new = 0
    for p in range(P.n):
        if not mask >> p & 1 and P.strict_down[p] & ~mask == 0:
            new |= 1 << p | P.strict_down[p]
    return L.index[new]


def apply_toggle_word(L, word, i: int) -> int:
    """Apply toggles right-to-left: the last letter acts first."""
    for p in reversed(word):
        i = toggle(L, i, p)
    return i


def orbit_uniform(L, orbit) -> Distribution:
    """Uniform on the orbit, zero outside."""
    w = [Fraction(0)] * L.n
    share = Fraction(1, len(orbit))
    for i in orbit:
        w[i] += share
    return Distribution(w)


def dump(L) -> dict:
    """Ideal member lists, edges and the ddeg array."""
    return {
        "n_ideals": L.n,
        "ideals": [L.members(i) for i in range(L.n)],
        "edges": [[i, j] for i, j, _ in L.edges()],
        "ddeg": list(L.ddeg),
    }
