"""Golden corpus: exact verdict reports pinned byte for byte.

``tests/golden/*.jsonl`` holds one line per case, ``{"case": ..., "report": ...}``,
for the catalog families over Q, F_2, F_3 and F_5 at three seeds, and for
every seaweed of sl_4 over Q.  A case whose build or verdict raises records
the exception class and message instead of a report.  Any change to a
verdict, rule, witness, swap or note shows up as a differing line.

``validate.jsonl`` pins the full Jacobi failure list of ``validate()``
(triples in order, defects formatted) on every catalog algebra over Q, F_2
and F_3, on broken variants of sl(3), gl(3), t(3) and n(4) with one
structure constant bumped by 1 or by 1/2, and the stdout and exit code of
``ualie validate`` on one broken file.

``cli.jsonl`` pins the exit code, stdout and stderr of the ``finite`` and
``counterexample`` commands, and of ``analyze`` on sl(2) over F_3 (order 27,
searched exhaustively) and over F_5 (order 125, past the exhaustive-search
cap, which the note names).

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from ualie import analysis as an
from ualie import cli
from ualie.constructions import SeaweedSpec, build_catalog
from ualie.errors import UalieError
from ualie.liecore import StructureConstantAlgebra
from ualie.scalars import QQ, PrimeField

GOLDEN = Path(__file__).parent / "golden"

SEEDS = (0, 7, 12345)
FIELDS = (("Q", QQ), ("Fp:2", PrimeField(2)), ("Fp:3", PrimeField(3)), ("Fp:5", PrimeField(5)))
ALGEBRAS = (
    [("sl", {"n": n}) for n in range(2, 6)]
    + [("gl", {"n": n}) for n in range(1, 7)]
    + [("t", {"n": n}) for n in range(1, 5)]
    + [("n", {"n": n}) for n in range(2, 6)]
    + [("heisenberg", {"k": k}) for k in range(1, 4)]
    + [("abelian", {"d": d}) for d in range(0, 4)]
    + [("s2", {}), ("example_4_6", {}), ("example_5_7", {})]
)


def _compositions(n):
    return [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
        for k in range(n)
        for cuts in itertools.combinations(range(1, n), k)
    ]


def _line(case, run):
    try:
        body = {"report": run().to_json_dict()}
    except UalieError as e:
        body = {"error": type(e).__name__, "message": str(e)}
    return json.dumps({"case": case, **body}, separators=(",", ":"))


def catalog_lines():
    for (name, params), (fname, field), seed in itertools.product(ALGEBRAS, FIELDS, SEEDS):
        args = ",".join(f"{k}={v}" for k, v in params.items())
        case = f"{name}({args}) {fname} seed={seed}"
        yield _line(case, lambda: an.verdict(build_catalog(name, field, **params), seed=seed))


def seaweed_lines():
    comps = _compositions(4)
    for top, bottom in itertools.product(comps, comps):
        spec = SeaweedSpec(4, top, bottom)
        yield _line(f"seaweed {spec.label()} Q", lambda: an.seaweed_verdict(spec, QQ))


def _failures_line(case, g):
    F = g.field
    rep = g.validate()
    failures = [[i, j, k, [F.format(c) for c in d]] for i, j, k, d in rep.jacobi_failures]
    return json.dumps({"case": case, "ok": rep.ok, "failures": failures}, separators=(",", ":"))


BROKEN_BASES = (("sl", 3), ("gl", 3), ("t", 3), ("n", 4))
BROKEN_ENTRIES = 4  # the first bracket entries, in sorted key order, that get bumped
BUMPS = (("1", Fraction(1)), ("1/2", Fraction(1, 2)))


def _bumped(g, key, delta):
    """g with the lowest-index structure constant of [e_i, e_j] raised by delta."""
    brackets = {ij: dict(row) for ij, row in g.brackets.items()}
    k = min(brackets[key])
    brackets[key][k] = g.field.add(brackets[key][k], delta)
    return StructureConstantAlgebra(f"{g.name}~", g.field, g.dim, g.basis_names, brackets)


def _cli(argv):
    """Exit code, stdout and stderr of ``ualie *argv`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_validate_stdout(g, *flags):
    """Exit code and stdout of ``ualie validate broken.json`` run where g is saved."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("broken.json", "w", encoding="utf-8") as fh:
                json.dump(g.to_json_dict(), fh)
            code, stdout, _ = _cli(["validate", "broken.json", *flags])
        finally:
            os.chdir(cwd)
    return code, stdout


def validate_lines():
    for (name, params), (fname, field) in itertools.product(ALGEBRAS, FIELDS[:3]):
        args = ",".join(f"{k}={v}" for k, v in params.items())
        case = f"{name}({args}) {fname}"
        try:
            g = build_catalog(name, field, **params)
        except UalieError as e:
            yield json.dumps(
                {"case": case, "error": type(e).__name__, "message": str(e)},
                separators=(",", ":"),
            )
            continue
        yield _failures_line(case, g)
    for name, n in BROKEN_BASES:
        g = build_catalog(name, QQ, n=n)
        for key in sorted(g.brackets)[:BROKEN_ENTRIES]:
            for label, delta in BUMPS:
                case = f"{name}(n={n}) Q bump{list(key)}+{label}"
                yield _failures_line(case, _bumped(g, key, delta))
    sl3 = build_catalog("sl", QQ, n=3)
    broken = _bumped(sl3, min(sl3.brackets), Fraction(1, 2))
    for flags in ((), ("--text",)):
        code, stdout = _cli_validate_stdout(broken, *flags)
        case = " ".join(("ualie validate broken.json",) + flags)
        yield json.dumps({"case": case, "exit": code, "stdout": stdout}, separators=(",", ":"))


CLI_COMMANDS = (
    [f"finite wua {ring}" for ring in ("klein", "z5", "heisenberg_f2", "heisenberg_f3", "z33")]
    + [
        "finite against klein z4",
        "finite field --p 5",
        "finite field --p 2 --n 2",
        "counterexample negcrit --builtin gl --n 2",
        "counterexample injection --builtin s2",
        "counterexample injection --builtin gl --n 2 --field Fp:3",
        "analyze --builtin sl --n 2 --field Fp:3",
        "analyze --builtin sl --n 2 --field Fp:5",
    ]
)


def cli_lines():
    for command in CLI_COMMANDS:
        code, stdout, stderr = _cli(command.split())
        yield json.dumps(
            {"case": f"ualie {command}", "exit": code, "stdout": stdout, "stderr": stderr},
            separators=(",", ":"),
        )


CORPUS = {
    "verdict_catalog.jsonl": catalog_lines,
    "seaweed_n4.jsonl": seaweed_lines,
    "validate.jsonl": validate_lines,
    "cli.jsonl": cli_lines,
}


def _check(fname):
    expected = (GOLDEN / fname).read_text(encoding="utf-8").splitlines()
    got = list(CORPUS[fname]())
    assert len(got) == len(expected), f"{fname}: {len(got)} cases, golden has {len(expected)}"
    diffs = [g.split(',"', 1)[0] for g, e in zip(got, expected) if g != e]
    assert not diffs, f"{fname}: {len(diffs)} reports differ, first {diffs[:5]}"


def test_golden_catalog_verdicts():
    _check("verdict_catalog.jsonl")


def test_golden_seaweed_n4_verdicts():
    _check("seaweed_n4.jsonl")


def test_golden_validate_failures():
    _check("validate.jsonl")


def test_golden_cli_commands():
    _check("cli.jsonl")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fname, gen in CORPUS.items():
        (GOLDEN / fname).write_text("".join(line + "\n" for line in gen()), encoding="utf-8")
