"""The reader rule: the package keeps only what a command reads.

Every public top-level name of a package module, and every public method
of its classes, must be read by some package module other than
``__init__`` (its own module counts) or by a file under ``bench/``.  A
name only the tests read belongs in ``tests/``.  Reads are matched by name:
a loaded ``name`` or ``obj.name`` anywhere in a reader counts.
"""

import ast
from pathlib import Path

import dischargekit

# the modules of the package that is imported, installed or not; the
# benchmark is read from the checkout
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(dischargekit.__file__).parent.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))


def public_names(tree: ast.Module):
    """(qualified name, name) of each public top-level definition and each
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def loaded_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_has_a_reader():
    read = {name for path in READERS for name in loaded_names(ast.parse(path.read_text()))}
    unread = [
        f"{path.stem}.{qualified}"
        for path in MODULES
        for qualified, name in public_names(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in read
    ]
    assert MODULES and not unread, f"read only by the tests, if at all: {unread}"
