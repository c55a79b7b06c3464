"""The library ships no name that only the tests use.

Every public module-level def, class or assignment in the package (other
than the re-exports of `__init__.py`) must be loaded somewhere in the
program: the package itself, `scripts/` or `perfbench/`, test files
excluded.  A load is a name read in Load context, an attribute, an import
alias, or an equal string constant (the benchmark tracer names the
functions it wraps by string).  A name's own definition does not count as
a load of it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsedisc"
PROGRAM = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]


def _program_files() -> list[Path]:
    return sorted(
        path
        for folder in PROGRAM
        for path in folder.glob("*.py")
        if path.name != "__init__.py" and not path.name.startswith("test_")
    )


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """The public names a module binds at top level, with their statements."""
    out: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, stmt) for name in names if not name.startswith("_"))
    return out


def _loaded(node: ast.AST) -> set[str]:
    """Every name the node loads."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}
    # loads per top-level statement, so a definition can skip its own
    loads = [(stmt, _loaded(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, stmt in _defined(tree).items():
            if not any(name in names for other, names in loads if other is not stmt):
                unused.append(f"{path.stem}.{name}")
    return sorted(unused)


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []


def test_the_scan_sees_the_package():
    # a scan that reads no file passes vacuously; the package defines its
    # public functions at top level, so some must be found
    names = {
        f"{path.stem}.{name}"
        for path in _program_files()
        if path.parent == PACKAGE
        for name in _defined(ast.parse(path.read_text()))
    }
    assert {"graphs.read_edge_list", "pointer.qf_color", "setsystems.CLOSURE_CAP"} <= names
