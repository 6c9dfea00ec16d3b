"""Every name the package defines is reached from the package itself.

A module-level function or class, or a method, that no ``Name`` or
``Attribute`` node anywhere in ``src/ualie`` mentions can only be reached
from tests, and code that only tests reach is deleted rather than kept.
Private names (one leading underscore) count too, so a helper left behind
by a refactor fails here; dunder methods are called by the interpreter and
are exempt.  The match is by name,
so it can miss dead code whose name is shared with a used one, but it never
flags code that is in use.  ``ALLOWED`` names the few entry points that
stay although no package code calls them, each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ualie"

ALLOWED = {
    "finite.commutator_bijections": "the finite benchmark workload and criterion 9 count with it",
    "finite.naive_commutator_bijections": "the finite benchmark workload and criterion 9 "
    "check the counts against it",
    "finite.negative_bijection_finite": "acceptance criterion 5 runs it",
    "liecore.StructureConstantAlgebra.centralizer": "the benchmark tracer's METHODS names it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """``(qualified name, bare name)`` of module-level functions and classes
    and of methods, public and private, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _referenced_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_referenced_in_the_package():
    trees = _trees()
    used = _referenced_names(trees)
    defined = {q: bare for m, t in trees.items() for q, bare in _definitions(m, t)}
    unreached = sorted(q for q, bare in defined.items() if bare not in used and q not in ALLOWED)
    assert unreached == [], f"names no package code references: {unreached}"
    stale = sorted(q for q in ALLOWED if q not in defined or defined[q] in used)
    assert stale == [], f"allowlisted names that are gone or now referenced: {stale}"
