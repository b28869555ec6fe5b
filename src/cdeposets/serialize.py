"""Rationals as "p/q" strings; shared by every JSON report."""

from __future__ import annotations

from fractions import Fraction


def rat_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"
