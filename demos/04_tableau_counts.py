"""Counting standard barely set-valued tableaux two ways.

The formula route multiplies a standard-tableau count (determinant or hook
formula) by an exact maxchain expectation on the corresponding interval;
the split-box route doubles one box at a time by splitting it into a
2-chain and counts the linear extensions of the split posets.  They agree
-- and for the balanced and shifted-balanced shapes the expectation
collapses to a clean product formula.
"""

from cdeposets.shapes import Partition, parse_shape
from cdeposets.tableaux import (
    count_barely_formula,
    count_shifted_barely_formula,
    enumerate_barely,
    enumerate_shifted_barely,
    f_aitken,
    f_hook,
    g_thrall,
)


def main():
    print("Ordinary shapes: (N+1) * f * E(maxchain; ddeg)")
    for literal in ("straight:2,2", "straight:3,1", "skew:3,2/1", "straight:3,2,1"):
        shape = parse_shape(literal)
        formula = count_barely_formula(shape)
        split = enumerate_barely(shape)
        print(f"  {literal:16s} f={f_aitken(shape):3d}  barely: {formula} = {split}")
    print()

    print("Shifted shapes, primed and diagonally unprimed:")
    for parts in ((2, 1), (3, 1), (3, 2), (3, 2, 1)):
        lam = Partition(parts)
        primed = count_shifted_barely_formula(lam)
        unprimed = count_shifted_barely_formula(lam, diagonally_unprimed=True)
        print(
            f"  shifted {str(parts):10s} g={g_thrall(lam):2d}"
            f"  barely={primed} (split-box {enumerate_shifted_barely(lam)})"
            f"  diag-unprimed={unprimed}"
            f" (split-box {enumerate_shifted_barely(lam, diagonally_unprimed=True)})"
        )
    print()

    lam = Partition((4, 4))
    print(f"Hook-length check on (4,4): f = {f_hook(lam)} = {f_aitken(parse_shape('straight:4,4'))}")


if __name__ == "__main__":
    main()
