"""Report output: rationals as "p/q" strings and the one JSON emitter.

``dumps(x)`` returns exactly ``json.dumps(x, indent=2, sort_keys=True)``,
which stays the test oracle.  ``json.dumps`` with an indent never takes
CPython's C encoder, so ``dumps`` walks the value itself and leaves only the
string escaping to C.  A ``Bitsets`` (a tuple of nonnegative int masks) is
written as the list of each mask's set-bit positions without building those
lists: each byte of a mask indexes a table of the members it holds, already
rendered at the leaf indent.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str


def rat_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


class Bitsets(tuple):
    """Masks that ``dumps`` writes as the lists of their set-bit positions."""

    __slots__ = ()


def dumps(x) -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, with ``Bitsets`` expanded."""
    return _emit(x, "\n")


def _emit(x, nl: str) -> str:
    """``x`` rendered with its closing bracket on the line indent ``nl``."""
    if isinstance(x, str):
        return _str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if isinstance(x, Bitsets):
            return _bitsets(x, nl)
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_emit(v, inner) for v in x]) + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        items = [_key(k) + ": " + _emit(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(x)


def _key(k) -> str:
    if isinstance(k, str):
        return _str(k)
    if k is None or isinstance(k, (int, float)):
        # json writes such keys as the string of their JSON value
        return '"' + json.dumps(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


@functools.cache
def _byte_table(leaf: str, k: int) -> tuple[str, ...]:
    """For each value of byte k, its members 8k + j as "," + leaf + "8k+j"."""
    table = [""]
    for j in range(8):
        item = "," + leaf + str(8 * k + j)
        table += [t + item for t in table]
    return tuple(table)


def _bitsets(masks: Bitsets, nl: str) -> str:
    inner = nl + "  "
    width = (max(masks).bit_length() + 7) // 8
    tables = [_byte_table(inner + "  ", k) for k in range(width)]
    close = inner + "]"
    lists = [
        "[" + "".join(map(tuple.__getitem__, tables, m.to_bytes(width, "little")))[1:] + close
        if m
        else "[]"
        for m in masks
    ]
    return "[" + inner + ("," + inner).join(lists) + nl + "]"
