"""Every demo script runs to completion and prints something, and every
``python`` block of the README runs without error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# each block by the README line its fence opens on
README_BLOCKS = {
    f"line-{README.count(chr(10), 0, m.start()) + 1}": m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", README, re.M | re.S)
}


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([sys.executable, str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS.values(), ids=README_BLOCKS.keys())
def test_readme_block_runs(block):
    proc = _run([sys.executable, "-c", block])
    assert proc.returncode == 0, proc.stderr
