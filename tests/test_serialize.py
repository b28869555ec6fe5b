"""``serialize.dumps`` against its oracle, ``json.dumps(indent=2,
sort_keys=True)``: the same bytes on seeded random nested values, and on
``Bitsets`` once their masks are expanded to member lists."""

import json
import random

import pytest

from cdeposets.posets import _bits
from cdeposets.serialize import Bitsets, dumps

STRINGS = (
    "",
    "a",
    "Zed",
    'say "hi"',
    "back\\slash",
    "line\nbreak",
    "tab\tand\rreturn",
    "caf\u00e9",
    "line\u2028separator",
    "  ",
    "\U0001f600",
    "\x00\x1f\x7f",
    "a/b",
)
LEAVES = (
    0,
    1,
    -1,
    7,
    -12345,
    2**64,
    -(2**100),
    10**40 + 1,
    True,
    False,
    None,
    0.5,
    -2.25,
    1e300,
    float("inf"),
)
EMPTIES = ([], {}, (), [[]], [{}], [(), []], {"": []}, {"a": {}}, {"b": [[], {}]})
EDGE_BITS = (0, 7, 8, 15, 16, 63, 64, 200)


def oracle(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def assert_same(got: str, want: str) -> None:
    """On a difference, name the first differing line only: pytest's own diff
    of two long reports can take minutes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i}: got {a[i : i + 1]!r}, want {b[i : i + 1]!r}")


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(LEAVES)
    if kind == 2:
        return rng.choice(EMPTIES)
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(1, 5))]
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    # keys in random insertion order, so only sorting puts them in order
    return {rng.choice(STRINGS) + str(rng.randrange(9)): v for v in items}


@pytest.mark.parametrize("seed", range(4))
def test_dumps_matches_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    for _ in range(100):
        x = random_value(rng)
        assert_same(dumps(x), oracle(x))


@pytest.mark.parametrize("x", [*LEAVES, *STRINGS, *EMPTIES])
def test_dumps_matches_json_dumps_on_leaves_and_empties(x):
    assert_same(dumps(x), oracle(x))
    assert_same(dumps([x, {"k": x}]), oracle([x, {"k": x}]))


def test_non_string_keys_are_coerced_like_json():
    for d in ({2: "b", 1: "a", -3: []}, {True: 1, False: 0}, {None: [1]}, {1.5: 0, -0.5: 1}):
        assert_same(dumps(d), oracle(d))
    with pytest.raises(TypeError):
        oracle({(1, 2): 0})
    with pytest.raises(TypeError):
        dumps({(1, 2): 0})


def expand(x):
    """``x`` with each Bitsets replaced by the member lists of its masks."""
    if isinstance(x, Bitsets):
        return [_bits(m) for m in x]
    if isinstance(x, dict):
        return {k: expand(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [expand(v) for v in x]
    return x


def edge_masks() -> list[int]:
    rng = random.Random(7)
    masks = [0, sum(1 << b for b in EDGE_BITS)]
    masks += [1 << b for b in EDGE_BITS]
    masks += [(1 << b) - 1 for b in EDGE_BITS if b]
    masks += [(1 << a) | (1 << b) for a in EDGE_BITS for b in EDGE_BITS if a < b]
    masks += [rng.getrandbits(rng.choice(EDGE_BITS) + 1) for _ in range(40)]
    return masks


def test_bitsets_render_as_their_member_lists():
    masks = edge_masks()
    for x in (Bitsets(masks), Bitsets([0]), Bitsets([0, 0]), Bitsets(()), Bitsets([1 << 200])):
        assert_same(dumps(x), oracle(expand(x)))


def test_bitsets_at_two_indents_in_one_report():
    masks = edge_masks()
    report = {
        "a": Bitsets(masks),
        "b": [[Bitsets(masks[::-1])], Bitsets(masks[:5])],
        "c": Bitsets(()),
        "d": {"e": [Bitsets([0, 1 << 64])]},
        "orbits": [Bitsets(masks[i : i + 3]) for i in range(0, len(masks), 3)],
    }
    assert_same(dumps(report), oracle(expand(report)))
    # the deeper tables were cached last; the shallow indent must not reuse them
    assert_same(dumps(report["a"]), oracle(expand(report["a"])))
