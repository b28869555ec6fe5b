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


def _identifiers(path: Path) -> set[str]:
    """Every name a file reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_is_reached():
    """Nothing ships that no test, demo or CLI verb reaches: every public
    top-level function or class of the library is named somewhere besides its
    own definition and ``__init__.py``: in library code, a test or a demo."""
    library = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    root = SRC.parent.parent
    users = sorted(root.joinpath("tests").glob("*.py")) + sorted(root.joinpath("demos").glob("*.py"))
    reached = set().union(*[_identifiers(path) for path in library + users])
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in library
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
    ]
    assert library and users
    assert not found, f"public names that nothing reaches: {found}"
