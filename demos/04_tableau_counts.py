"""Counting standard barely set-valued tableaux two ways.

The formula route weights each ideal of J(P) by the number of maximal
chains through it: the weight of the empty ideal is the standard count f,
and the weighted sum of a statistic is (N+1) * f times its exact maxchain
expectation.  The split-box route doubles one box at a time by splitting
it into a 2-chain and counts the linear extensions of the split posets.
Both run on the one J(P) that `tableau_counts` builds per shape: the
split-box sweep is a second algorithm for the same sum, and
`tableau_counts` raises if the two ever differ.  The independent check is
the backtracker over fillings in `tests/tableau_oracle.py`.  For the
balanced and shifted-balanced shapes the expectation collapses to a clean
product formula.  The hook-length formula checks f against the maximal
chains of J(P).
"""

from cdeposets.shapes import Partition, ShiftedShape, parse_shape
from cdeposets.tableaux import f_hook, tableau_counts


def main():
    print("Ordinary shapes: (N+1) * f * E(maxchain; ddeg)")
    for literal in ("straight:2,2", "straight:3,1", "skew:3,2/1", "straight:3,2,1"):
        c = tableau_counts(parse_shape(literal))
        print(
            f"  {literal:16s} f={c['standard']:3d}"
            f"  barely: {c['barely_formula']} = {c['barely_brute_force']}"
        )
    print()

    print("Shifted shapes, primed and diagonally unprimed:")
    for parts in ((2, 1), (3, 1), (3, 2), (3, 2, 1)):
        c = tableau_counts(ShiftedShape(Partition(parts)))
        print(
            f"  shifted {str(parts):10s} g={c['standard_unprimed']:2d}"
            f"  barely={c['barely_formula']} (split-box {c['barely_brute_force']})"
            f"  diag-unprimed={c['barely_diag_unprimed_formula']}"
            f" (split-box {c['barely_diag_unprimed_brute_force']})"
        )
    print()

    lam = Partition((4, 4))
    f = tableau_counts(parse_shape("straight:4,4"))["standard"]
    print(f"Hook-length check on (4,4): f = {f_hook(lam)} = {f}")


if __name__ == "__main__":
    main()
