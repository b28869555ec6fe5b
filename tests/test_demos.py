"""Every demo script runs to completion and prints, byte for byte, its
stored output ``tests/golden/demo-NN.out`` (NN the demo's number), and every
``python`` block of the README runs without error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text(encoding="utf-8")
# each block by its ordinal, so that editing the text around it keeps its id
README_BLOCKS = {
    f"block-{i}": m.group(1)
    for i, m in enumerate(re.finditer(r"^```python\n(.*?)^```", README, re.M | re.S), 1)
}


def _run(argv, text=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, capture_output=True, text=text, env=env, timeout=120)


def _golden(demo):
    return GOLDEN / f"demo-{demo.name[:2]}.out"


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(GOLDEN.glob("demo-*.out")) == list(map(_golden, DEMOS))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([sys.executable, str(demo)], text=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stdout == _golden(demo).read_bytes()


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS.values(), ids=README_BLOCKS.keys())
def test_readme_block_runs(block):
    proc = _run([sys.executable, "-c", block])
    assert proc.returncode == 0, proc.stderr
