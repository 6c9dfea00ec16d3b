"""Every public name in the package is reached from the package itself.

A public function, class or method that no ``Name`` or ``Attribute`` node
anywhere in ``src/ualie`` mentions can only be reached from tests, and code
that only tests reach is deleted rather than kept.  The match is by name,
so it can miss dead code whose name is shared with a used one, but it never
flags code that is in use.  ``ALLOWED`` names the few entry points that
stay although no package code calls them, each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ualie"

ALLOWED = {
    "analysis.verify_example_5_7_refutation": "acceptance criterion 2 runs it",
    "finite.commutator_bijections": "the finite benchmark workload and criterion 9 count with it",
    "finite.naive_commutator_bijections": "the finite benchmark workload and criterion 9 "
    "check the counts against it",
    "finite.negative_bijection_finite": "acceptance criterion 5 runs it",
    "liecore.StructureConstantAlgebra.centralizer": "the benchmark tracer's METHODS names it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(module, tree):
    """``(qualified name, bare name)`` of public functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
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
    defined = {q: bare for m, t in trees.items() for q, bare in _public_definitions(m, t)}
    unreached = sorted(q for q, bare in defined.items() if bare not in used and q not in ALLOWED)
    assert unreached == [], f"public names no package code references: {unreached}"
    stale = sorted(q for q in ALLOWED if q not in defined or defined[q] in used)
    assert stale == [], f"allowlisted names that are gone or now referenced: {stale}"
