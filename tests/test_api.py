"""Import hygiene of the package, read from the source with `ast`.

Every top-level import of a module is used in that module's code or
re-exported through its `__all__`, and every `__all__` entry names something
the module defines, once.  Every private top-level name is read somewhere in
the package.  A name that loses its last caller takes its imports with it,
and a private helper that loses its last caller goes too.  A module imports
only from the layers below it.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratgrid"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out[bound] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module's code reads, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for note in annotations:
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def _private_defined(tree: ast.Module) -> dict[str, int]:
    """Private names the module binds at top level (dunders aside), with
    their line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _all(tree: ast.Module):
    """The literal entries of the module's `__all__`, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


@pytest.mark.parametrize("name", MODULES)
def test_every_top_level_import_is_used_or_exported(name):
    tree = _tree(name)
    kept = _used_names(tree) | set(_all(tree) or ())
    unused = {n: line for n, line in _imported_names(tree).items() if n not in kept}
    assert not unused, f"{name}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    entries = _all(_tree(name))
    if entries is None:
        return
    assert len(entries) == len(set(entries)), f"{name}.__all__ repeats a name"
    module = importlib.import_module(f"stratgrid.{name}")
    missing = [e for e in entries if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_every_private_top_level_name_is_read_in_the_package():
    """A private helper with no reader in `src` is dead code: tests may call
    it, but they do not keep it."""
    trees = {name: _tree(name) for name in MODULES}
    read = set()
    for tree in trees.values():
        read |= _used_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = {
        f"{name}.{private}": line
        for name, tree in trees.items()
        for private, line in _private_defined(tree).items()
        if private not in read
    }
    assert not unread, f"private names nothing in the package reads: {unread}"


def _layers() -> list[str]:
    """The modules in the order the package docstring lists its layers,
    bottom up: each name followed by its parenthesized role."""
    doc = ast.get_docstring(_tree("__init__"))
    return re.findall(r"(\w+)\s+\(", doc[doc.index("Layers, bottom up:") :])


def _package_imports(tree: ast.Module) -> dict[str, int]:
    """The package modules a module imports anywhere in its code, with the
    first line of each."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.module and node.module.startswith("stratgrid."):
                names = [node.module.split(".")[1]]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("stratgrid.")]
        else:
            continue
        for name in names:
            out.setdefault(name, node.lineno)
    return out


def test_cli_imports_no_private_name_from_characters():
    """`characters.twist_trials` owns the `verify twist` decision, so the
    front end needs none of the layer's private names."""
    private = [
        alias.name
        for node in ast.walk(_tree("cli"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "characters"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cli.py imports private names from characters: {private}"


def test_layers_name_every_module_once():
    layers = _layers()
    assert sorted(layers) == [m for m in MODULES if m != "__init__"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_each_module_imports_only_from_the_layers_below_it(name):
    layers = _layers()
    below = set(layers[: layers.index(name)])
    upward = {m: line for m, line in _package_imports(_tree(name)).items() if m not in below}
    assert not upward, f"{name}.py imports from its own or a higher layer: {upward}"
