"""The library ships no name or option that only the tests use.

Every public module-level def, class or assignment in the package (other
than the re-exports of `__init__.py`) must be loaded somewhere in the
program: the package itself, `scripts/` or `perfbench/`, test files
excluded.  A load is a name read in Load context, an attribute, an import
alias, or an equal string constant (the benchmark tracer names the
functions it wraps by string).  A name's own definition does not count as
a load of it.

Every keyword-only parameter of a package function must likewise be passed
by name somewhere in the program.  A function that hands its own
parameter on unchanged (`k=k`) only forwards it, so that does not count.
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


def _program_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}


def unused_public_names() -> list[str]:
    trees = _program_trees()
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


def _keyword_only(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) for every keyword-only parameter defined."""
    return [
        (fn.name, a.arg)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for a in fn.args.kwonlyargs
    ]


def _passed_keywords(tree: ast.Module) -> set[str]:
    """Every keyword a call passes, except a parameter of the enclosing
    function forwarded unchanged."""
    out: set[str] = set()

    def visit(node: ast.AST, params: set[str]) -> None:
        if isinstance(node, ast.FunctionDef):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                value = kw.value
                if not (isinstance(value, ast.Name) and value.id == kw.arg and kw.arg in params):
                    out.add(kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, set())
    return out


def unset_keyword_parameters(trees: dict[Path, ast.Module]) -> list[str]:
    passed = set().union(*map(_passed_keywords, trees.values()))
    return sorted(
        f"{path.stem}.{fn}({arg}=)"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for fn, arg in _keyword_only(tree)
        if arg not in passed
    )


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


def test_every_keyword_only_parameter_is_set_by_the_program():
    assert unset_keyword_parameters(_program_trees()) == []


def test_the_keyword_scan_sees_the_package_and_skips_forwarding():
    trees = _program_trees()
    assert ("herdisc_search", "exact_cap") in _keyword_only(trees[PACKAGE / "discrepancy.py"])
    # a wrapper that only forwards its keyword sets it for neither function
    forwarded = "def f(*, k=0):\n    return k\ndef g(*, k=0):\n    return f(k=k)\n"
    module = PACKAGE / "m.py"
    assert unset_keyword_parameters({module: ast.parse(forwarded)}) == ["m.f(k=)", "m.g(k=)"]
    # a call that sets it, here from another name, sets both
    setting = forwarded + "def h(x):\n    return g(k=x)\n"
    assert unset_keyword_parameters({module: ast.parse(setting)}) == []
