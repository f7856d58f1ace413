"""Source hygiene checks over src/ and tests/."""

import ast
import re
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
    """The module-level functions, and the methods and properties of
    module-level classes, that no code in paths reads, by qualified name
    (Class.name for a method).

    A reference inside the definition's own body (recursion) does not
    count; a call, an attribute read or a name passed along anywhere else
    does.  A method counts as read when its name is read on any receiver,
    so a method name that two classes define is pinned below
    (test_shared_method_names_are_pinned).  Dunder methods are called by
    the language and are left out.
    """
    defined, used = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        parts = []  # (prefix of a definition's qualified name, node)
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                parts += [("", node) for node in top.decorator_list + top.bases]
                parts += [(f"{top.name}.", stmt) for stmt in top.body]
            else:
                parts.append(("", top))
        for prefix, part in parts:
            own = part.name if isinstance(part, ast.FunctionDef) else None
            if own and not own.startswith("__"):
                defined[prefix + own] = f"{path.relative_to(ROOT)}:{part.lineno} {prefix}{own}"
            for node in ast.walk(part):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return {name: hit for name, hit in defined.items() if name.rsplit(".", 1)[-1] not in used}


def test_no_dead_private_helpers():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    unread = unread_functions(files)
    assert sorted(hit for name, hit in unread.items() if name.rsplit(".", 1)[-1].startswith("_")) == []


def test_public_functions_are_read_or_exported():
    # a public function that no code in src/ reads must be package API,
    # listed in boundgen.__all__, not a name kept alive by its own tests
    files = sorted((ROOT / "src").rglob("*.py"))
    unread = unread_functions(files)
    assert sorted(
        hit
        for name, hit in unread.items()
        if not name.startswith("_") and "." not in name and name not in boundgen.__all__
    ) == []


# perfbench/spans.py wraps MatrixSL.conj_by by name as a matrix-layer span
READ_OUTSIDE_SRC = {"MatrixSL.conj_by"}


def test_methods_are_read():
    # a public method or property that no code in src/ reads is dead code
    # kept alive by its own tests
    files = sorted((ROOT / "src").rglob("*.py"))
    unread = unread_functions(files)
    assert sorted(hit for name, hit in unread.items() if "." in name and name not in READ_OUTSIDE_SRC) == []


def shared_method_names(paths: list[Path]) -> dict[str, list[str]]:
    """The non-dunder method names defined in two or more module-level
    classes, each with the classes that define it."""
    owners: dict[str, list[str]] = {}
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.ClassDef):
                for stmt in top.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                        owners.setdefault(stmt.name, []).append(top.name)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


# unread_functions cannot tell these methods apart, so reading one counts
# for every class that defines the name; a change that removes one of the
# two definitions lowers the pin, and one that must share a new name adds
# it and says why in CHANGES.md
SHARED_METHOD_NAMES = {"normally_generates", "order", "origin", "sizes", "verify"}


def test_shared_method_names_are_pinned():
    # a method left behind under a name that another class still reads
    # passes the dead-code scan, so no new name may be shared
    shared = shared_method_names(sorted((ROOT / "src").rglob("*.py")))
    assert set(shared) == SHARED_METHOD_NAMES, shared


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def settable_values(path: Path) -> list[str]:
    """Every value a caller or user can set in a module, one entry each.

    Counted: parameter defaults (lambdas too), dataclass field defaults (a
    field() call counts only with default or default_factory), CLI options
    (add_argument with a dashed name), environment reads and module-level
    UPPER_CASE constants.
    """
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            out += [f"default of {getattr(node, 'name', 'lambda')}"] * count
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            for stmt in node.body:
                value = stmt.value if isinstance(stmt, ast.AnnAssign) else None
                if value is None or (
                    isinstance(value, ast.Call)
                    and ast.unparse(value.func) == "field"
                    and not {k.arg for k in value.keywords} & {"default", "default_factory"}
                ):
                    continue
                out.append(f"field {node.name}.{ast.unparse(stmt.target)}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("add_argument"):
            if node.args and str(getattr(node.args[0], "value", "")).startswith("-"):
                out.append(f"option {node.args[0].value}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.getenv", "os.environ.get"):
            out.append("environment variable")
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
            out.append("environment variable")
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            out += [f"constant {name}" for name in names if CONSTANT.match(name)]
    return out


def test_settable_values_do_not_grow():
    # the option budget: every default, option, environment variable and
    # constant is something a reader must know to trust a result.  A change
    # that removes one lowers the pin; one that must add one raises it and
    # says why in CHANGES.md
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}: {hit}" for path in files for hit in settable_values(path)]
    assert len(found) <= 73, found
