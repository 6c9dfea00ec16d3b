"""Line coverage of the tier-1 suite over ``src/ualie``, stdlib only.

Runs the tier-1 tests in this process under a ``sys.settrace`` line
recorder that traces only frames of ``src/ualie``, then prints every
statement of the package that no test executed, as ``path:line: source``.
A statement counts as executable when its first line carries bytecode, and
as executed when a line event fires on that line.

Exit status 1 when an unexecuted statement lies inside one of the
certificate checkers in ``CHECKERS``: a check that no test runs can accept
anything unnoticed.  Other unexecuted statements are listed only.  Failing
tests are reported but do not decide the exit status: tracing slows the
package several times over, so the suite's wall-clock asserts may fail
here, and the untraced tier-1 run is the one that gates test failures.

Not collected by pytest (the name has no ``test_`` prefix).  Run from the
repository root:

    PYTHONPATH=src python tests/line_coverage.py
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ualie"

CHECKERS = {
    "analysis._verify_witness_exactly",
    "analysis._swap_obligations",
    "_kernels.int_rank",
    "_kernels._annihilates",
    "finite.verify_bijection",
    "finite._additivity_witness",
    "finite.FiniteLieRing.validate",
    "liecore.StructureConstantAlgebra.validate",
}


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """The first lines of the statements of ``path`` that carry bytecode,
    each with the checker, if any, whose body holds it."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    executable = _code_lines(compile(source, str(path), "exec"))
    spans = []

    def checkers(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if name in CHECKERS:
                    spans.append((child.lineno, child.end_lineno, name))
                if isinstance(child, ast.ClassDef):
                    checkers(child, name)

    checkers(tree, path.stem)
    statements = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno in executable:
            owner = next((name for lo, hi, name in spans if lo <= node.lineno <= hi), None)
            statements[node.lineno] = owner
    return statements, source.splitlines()


def main():
    import pytest

    sys.path.insert(0, str(SRC.parent))  # this checkout's package, not an installed one
    src = str(SRC)
    executed = {}
    tracers = {}  # one line recorder per file, bound to that file's set

    def recorder(filename):
        add = executed.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(src):
            return None
        if filename not in tracers:
            tracers[filename] = recorder(filename)
        return tracers[filename]

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    gaps = []
    for path in sorted(SRC.glob("*.py")):
        statements, lines = _statements(path)
        hit = executed.get(str(path), set())
        total += len(statements)
        for lineno in sorted(statements):
            if lineno not in hit:
                missed += 1
                owner = statements[lineno]
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}"
                      + (f"  [checker {owner}]" if owner else ""))
                if owner:
                    gaps.append(owner)
    print(f"{total - missed} of {total} statements executed; "
          f"pytest exit status {int(status)} under tracing")
    if gaps:
        print(f"unexecuted statements in checkers: {', '.join(sorted(set(gaps)))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
