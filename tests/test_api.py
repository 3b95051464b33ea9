"""The package's public surface, pinned.

``freepoisson.__all__`` is an explicit list, every module's ``__all__``
resolves, and ``src/`` holds no function, class or method that only tests
would call: each one is referenced by name somewhere in ``src/`` or
exported by an ``__all__``.
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
    "domain_invariance_study",
    "forward_dst",
    "inverse_dst",
    "max_norm_difference",
    "pad_domain",
    "read_pgrid",
    "restrict_to_subgrid",
    "solve_free_space",
    "solve_harmonic_1d",
    "transfer_boundary_to_rhs",
    "write_pgrid",
]

UNREFERENCED_ALLOWED = {
    # nothing in src/ calls it yet; the solve report is to record its value
    "BoundaryValues.check_consistency",
    # argparse calls it, as the parser's negative-number matcher
    "_FloatToken.match",
}

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


def _references(tree: ast.Module) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_src_has_no_unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced, exported = set(), set()
    for name in MODULES + ["__init__"]:
        module = importlib.import_module(
            "freepoisson" if name == "__init__" else f"freepoisson.{name}"
        )
        exported.update(getattr(module, "__all__", []))
    for tree in trees.values():
        referenced |= _references(tree)
    unused = [
        f"{file}: {qualified}"
        for file, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in referenced
        and name not in exported
        and qualified not in UNREFERENCED_ALLOWED
    ]
    assert unused == []
