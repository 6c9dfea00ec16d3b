"""Golden corpus: exact verdict reports pinned byte for byte.

``tests/golden/*.jsonl`` holds one line per case, ``{"case": ..., "report": ...}``,
for the catalog families over Q, F_2, F_3 and F_5 at three seeds, and for
every seaweed of sl_4 over Q.  A case whose build or verdict raises records
the exception class and message instead of a report.  Any change to a
verdict, rule, witness, swap or note shows up as a differing line.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import itertools
import json
import sys
from pathlib import Path

from ualie import analysis as an
from ualie.constructions import SeaweedSpec, build_catalog
from ualie.errors import UalieError
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


CORPUS = {"verdict_catalog.jsonl": catalog_lines, "seaweed_n4.jsonl": seaweed_lines}


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fname, gen in CORPUS.items():
        (GOLDEN / fname).write_text("".join(line + "\n" for line in gen()), encoding="utf-8")
