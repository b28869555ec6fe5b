"""Rules on the library source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdeposets"


def test_library_has_no_assert():
    """Correctness gates are real checks: ``python -O`` strips ``assert``."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/cdeposets: {found}"


def test_library_imports_only_the_standard_library():
    """The library stays stdlib-only: every import is relative or names a
    top-level module of the standard library."""
    files = sorted(SRC.glob("*.py"))
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert files
    assert not found, f"non-stdlib imports in src/cdeposets: {found}"


def test_reports_are_written_by_the_one_emitter():
    """No ``json.dump``/``json.dumps`` with an ``indent`` outside ``serialize.py``:
    every indented report goes through ``serialize.dumps``."""
    files = sorted(p for p in SRC.glob("*.py") if p.name != "serialize.py")
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert files
    assert not found, f"indented json.dumps outside serialize.py: {found}"
