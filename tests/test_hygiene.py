"""Source hygiene checks over src/ and tests/."""

import ast
from pathlib import Path

import boundgen

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """The imports of a module whose names it never reads.

    A name counts as read when it is loaded anywhere, appears in a quoted
    annotation such as "list[MatrixSL]" or is listed in __all__.
    """
    tree = ast.parse(path.read_text(), str(path))
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= {e.value for e in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    assert [hit for path in files for hit in unused_imports(path)] == []


def unread_functions(paths: list[Path]) -> dict[str, str]:
    """The module-level functions that no code in paths reads, by name.

    A reference inside the function's own definition (recursion) does not
    count; a call, an attribute read or a name passed along anywhere else
    does.
    """
    defined, used = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own and not own.startswith("__"):
                defined[own] = f"{path.relative_to(ROOT)}:{top.lineno} {own}"
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return {name: hit for name, hit in defined.items() if name not in used}


def test_no_dead_private_helpers():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert sorted(hit for name, hit in unread_functions(files).items() if name.startswith("_")) == []


def test_public_functions_are_read_or_exported():
    # a public function that no code in src/ reads must be package API,
    # listed in boundgen.__all__, not a name kept alive by its own tests
    files = sorted((ROOT / "src").rglob("*.py"))
    unread = unread_functions(files)
    assert sorted(
        hit for name, hit in unread.items() if not name.startswith("_") and name not in boundgen.__all__
    ) == []
