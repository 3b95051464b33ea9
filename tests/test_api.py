"""The package's public surface and its layering, pinned.

``freepoisson.__all__`` is an explicit list, every module's ``__all__``
resolves, and ``src/`` holds no function, class or method that only tests
would call: each one is referenced somewhere in ``src/`` (a method only
by an attribute read, see ``_references``) or exported by
``freepoisson.__all__``.  A submodule's ``__all__`` alone does not make a
name used.  Every import of ``src/`` is at module level, and only the
driver, ``solver``, imports the harmonic phase.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import freepoisson

PUBLIC = [
    "AlignmentError",
    "BoundaryValues",
    "GridFunction",
    "PGridFormatError",
    "PolyBump",
    "ShapeError",
    "SingularityError",
    "SolveReport",
    "SolverConfig",
    "SupportViolationError",
    "UniformGrid",
    "boundary_values_fast",
    "boundary_values_naive",
    "max_norm_difference",
    "pad_domain",
    "read_pgrid",
    "solve_free_space",
    "write_pgrid",
]

SRC = Path(freepoisson.__file__).parent
MODULES = [m.name for m in pkgutil.iter_modules([str(SRC)]) if m.name != "__main__"]


def test_package_all_is_pinned():
    assert freepoisson.__all__ == sorted(PUBLIC)


def test_every_exported_name_resolves():
    for name in ["", *MODULES]:
        module = importlib.import_module("freepoisson" + (f".{name}" if name else ""))
        for attr in getattr(module, "__all__", []):
            assert hasattr(module, attr), f"{module.__name__}.__all__ lists missing {attr!r}"


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _root(node: ast.expr) -> ast.expr:
    """The object an attribute chain such as ``np.random.default_rng`` starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _references(tree: ast.Module, classes: set[str]) -> tuple[set[str], set[str], set[str]]:
    """Every name a module loads or imports, and every attribute it reads.

    Returns the loaded and imported names, the attribute names, and the
    ``Class.name`` reads.  An attribute read off a module the file imports
    is no reference (``np.zeros`` does not use a ``zeros`` method), and one
    read off a class of ``src/`` credits only that class
    (``GridFunction.from_callable`` uses no other class's ``from_callable``).
    """
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    names, attributes, members = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            owner = root.id if isinstance(root, ast.Name) else None
            if owner in modules:
                continue
            if owner in classes and node.value is root:
                members.add(f"{owner}.{node.attr}")
            else:
                attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes, members


def test_src_has_no_unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    exported = set(freepoisson.__all__)
    names, attributes, members = set(), set(), set()
    for tree in trees.values():
        loaded, read, reads = _references(tree, classes)
        names |= loaded
        attributes |= read
        members |= reads

    def used(qualified: str, name: str) -> bool:
        if name in exported:
            return True
        if qualified != name:  # a method: a local of its name (pgrid's ``zeros``) is no use
            return name in attributes or qualified in members
        return name in names or name in attributes

    unused = [
        f"{file}: {qualified}"
        for file, tree in trees.items()
        for qualified, name in _definitions(tree)
        if not used(qualified, name)
    ]
    assert unused == []


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The dotted names an import statement may bind a module from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    return [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]


def test_src_imports_are_module_level_and_only_solver_imports_harmonic():
    # The phases share their decisions (the block budget, the support
    # record) through the modules below them, so no import needs to wait
    # inside a function to break a cycle.
    imports = (ast.Import, ast.ImportFrom)
    nested, harmonic = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested.update(f"{path.name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, imports))
        if path.stem != "solver":
            harmonic.update(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                            if isinstance(node, imports)
                            and any("harmonic" in name.split(".") for name in _imported_modules(node)))
    assert (sorted(nested), sorted(harmonic)) == ([], [])
