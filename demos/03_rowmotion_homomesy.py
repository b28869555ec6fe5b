"""Rowmotion and gyration orbits, and antichain-cardinality homomesy.

Uniform distributions on rowmotion (or any rank-permuted rowmotion) orbits
are toggle-symmetric, so on a tCDE lattice the antichain cardinality
averages to the edge density along every orbit -- homomesy for free.
"""

from itertools import permutations

from cdeposets import build_lattice, chain, direct_product
from cdeposets.dynamics import (
    antichain_cardinality,
    gyration_map,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion_map,
)
from cdeposets.shapes import parse_shape


def main():
    print("Rowmotion on J(a x b) has order a+b:")
    for a, b in ((2, 2), (2, 3), (3, 4), (4, 4)):
        lattice = build_lattice(direct_product(chain(a), chain(b)))
        dec = orbit_decomposition(lattice, rowmotion_map(lattice))
        print(f"  {a}x{b}: orbit sizes {sorted(dec.sizes)}, order {dec.order()}")
    print()

    shape = parse_shape("straight:4,2")
    lattice = build_lattice(shape.poset())
    print("Gyration orbit of the empty ideal in [empty,(4,2)]:")
    g = gyration_map(lattice)
    i = lattice.index[0]
    steps = []
    while True:
        # the ideal as a partition: its boxes in each row of (4,2)
        boxes = [shape.boxes[k] for k in lattice.members(i)]
        rows = [sum(1 for r, _ in boxes if r == row) for row in (1, 2)]
        steps.append(tuple(c for c in rows if c) or "empty")
        i = g[i]
        if i == lattice.index[0]:
            break
    print("  " + " -> ".join(map(str, steps)) + " -> back\n")

    print("Every rank-permuted rowmotion on J(shifted (3,2,1)) is 1-mesic:")
    lattice = build_lattice(parse_shape("shifted:3,2,1").poset())
    constants = set()
    for sigma in permutations(range(5)):
        rep = homomesy_report(
            lattice,
            rank_permuted_rowmotion_map(lattice, sigma),
            antichain_cardinality(lattice),
        )
        constants.add(rep["constant"])
    print(f"  {len(list(permutations(range(5))))} toggle orders, constants: {constants}")


if __name__ == "__main__":
    main()
