"""Rules on the library source itself."""

import ast
import importlib
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdeposets"
TESTS = Path(__file__).resolve().parent


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


def _identifiers(source: str, imports: bool = True) -> set[str]:
    """Every name a piece of code reads or looks up as an attribute, and,
    with ``imports``, every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _library_and_users():
    """(library paths, their sources, the names they and the users reach):
    the users are the demos and the ``python`` blocks of the README."""
    library = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    root = SRC.parent.parent
    readme = root.joinpath("README.md").read_text(encoding="utf-8")
    demos = sorted(root.joinpath("demos").glob("*.py"))
    users = [path.read_text(encoding="utf-8") for path in demos]
    users += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    sources = [path.read_text(encoding="utf-8") for path in library]
    reached = set().union(*[_identifiers(source, False) for source in sources + users])
    assert library and len(users) > 5
    return library, sources, reached


def test_every_public_name_is_reached():
    """Nothing ships that no CLI verb, demo or README example reaches: every
    public top-level function or class of the library is used somewhere
    besides its own definition and ``__init__.py``: in library code (the CLI
    included), a demo or a ``python`` block of the README.  A use is a name
    or an attribute lookup; an import alone does not count.  Tests do not
    count, so code that only tests call lives with the test oracles."""
    library, sources, reached = _library_and_users()
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path, source in zip(library, sources)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
    ]
    assert not found, f"public names that nothing reaches: {found}"


def test_every_public_member_is_reached():
    """The same rule one level down: every public method or property of a
    top-level library class is looked up by name in library code, a demo or
    a README ``python`` block.  The rule goes by name only, so a member
    whose name another class shares (``validate``, ``to_dict``, ``edge_count``)
    counts as reached when any of them is; it catches a member with a name
    of its own, not one of two same-named members that only tests call."""
    library, sources, reached = _library_and_users()
    found = [
        f"{path.name}:{member.lineno}:{node.name}.{member.name}"
        for path, source in zip(library, sources)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in reached
    ]
    assert not found, f"public members that nothing reaches: {found}"


def _imported_modules(path: Path) -> set[str]:
    """The modules a source file imports, relative ones without their dots."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
            if node.module is None:  # from . import name
                found.update(alias.name for alias in node.names)
    return found


def test_exact_core_is_integer_only():
    """The eliminator and the tableau counts work in integers: neither
    ``linalg.py`` nor ``tableaux.py`` imports or names ``fractions`` or
    ``Fraction``, and the tableau counts run no elimination."""
    for name in ("linalg.py", "tableaux.py"):
        path = SRC / name
        assert "fractions" not in _imported_modules(path), name
        assert "Fraction" not in _identifiers(path.read_text(encoding="utf-8")), name
    assert "linalg" not in _imported_modules(SRC / "tableaux.py")


def test_tcde_layer_walks_no_member_lists():
    """``cde.py`` reads the label masks and the Gram counts only: it neither
    imports nor names ``posets._bits``, so no per-ideal member list enters
    the tCDE layer."""
    assert "_bits" not in _identifiers((SRC / "cde.py").read_text(encoding="utf-8"))


def test_distribution_oracle_is_independent_of_the_chain_pass():
    """``tests/distribution_oracle.py`` builds its chain counts from its own
    k-step walk: of ``cdeposets.distributions`` it imports ``Distribution``
    and nothing else, by any route."""
    from cdeposets import distributions

    path = TESTS / "distribution_oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith(distributions.__name__)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cdeposets"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                home = getattr(value, "__module__", None)
                if value is distributions or (
                    home == distributions.__name__ and value is not distributions.Distribution
                ):
                    found.append(f"{node.module}.{alias.name}")
    assert not found, f"distribution_oracle.py imports the library's chain code: {found}"
