"""Command-line interface: exit codes, payload shapes, determinism."""

import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ualie import cli
from ualie.constructions import build_catalog
from ualie.scalars import QQ

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gl2_file(tmp_path):
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(build_catalog("gl", QQ, n=2).to_json_dict()))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    from fractions import Fraction

    from ualie.liecore import StructureConstantAlgebra

    bad = StructureConstantAlgebra(
        "broken",
        QQ,
        3,
        None,
        {(0, 1): {2: Fraction(1)}, (0, 2): {2: Fraction(1)}, (1, 2): {0: Fraction(1)}},
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    return str(path)


def test_analyze_builtin_ua(capsys):
    code, out, err = run_cli(capsys, "analyze", "--builtin", "sl", "--n", "2")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "UA" and d["rule"] == "C_CONDITION"
    assert d["field"] == {"kind": "Q"}


def test_analyze_builtin_not_ua_finite_field(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--builtin", "heisenberg", "--k", "1", "--field", "Fp:3"
    )
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "NOT_UA" and d["rule"] == "NEG_CASE_3"
    assert d["field"] == {"kind": "Fp", "p": 3}


def test_analyze_file(capsys, gl2_file):
    code, out, _ = run_cli(capsys, "analyze", gl2_file)
    assert code == 0
    assert json.loads(out)["rule"] == "NEG_CASE_2"


def test_analyze_rejects_broken_file(capsys, broken_file):
    code, out, err = run_cli(capsys, "analyze", broken_file)
    assert code == 1
    assert "Jacobi" in err


def test_analyze_usage_errors(capsys):
    assert run_cli(capsys, "analyze")[0] == 2  # no input at all
    assert run_cli(capsys, "analyze", "--builtin", "nosuch")[0] == 2
    assert run_cli(capsys, "analyze", "--builtin", "sl")[0] == 2  # missing --n


def test_counterexample_refuses_a_broken_file_naming_the_triple(capsys, broken_file):
    """``counterexample`` reads its algebra as ``analyze`` does, and names
    the failing basis triple in the same words."""
    expected = (1, "", "input error: Jacobi identity fails at basis triple (0,1,2)\n")
    for argv in (("counterexample", "negcrit", broken_file),
                 ("counterexample", "injection", broken_file),
                 ("analyze", broken_file)):
        assert run_cli(capsys, *argv) == expected, argv


def test_validate_good_and_broken(capsys, gl2_file, broken_file):
    code, out, _ = run_cli(capsys, "validate", gl2_file)
    assert code == 0 and json.loads(out)["ok"] is True

    code, out, err = run_cli(capsys, "validate", broken_file)
    assert code == 1
    d = json.loads(out)
    assert d["ok"] is False
    assert d["first_failure"]["triple"] == [0, 1, 2]
    assert d["first_failure"]["basis"] == ["e1", "e2", "e3"]
    assert "Jacobi identity fails at basis triple" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "FILE", "--field", "Fp:3"),
    ("validate", "FILE", "--field", "Fp:3"),
    ("counterexample", "negcrit", "FILE", "--field", "Fp:3"),
    ("--field", "Fp:3", "analyze", "FILE"),
    ("analyze", "FILE", "--field", "Q"),
])
def test_field_flag_with_an_algebra_file_is_a_usage_error(capsys, gl2_file, argv):
    """A file declares its own field, so a given --field is refused with one
    line, not silently ignored."""
    argv = [gl2_file if a == "FILE" else a for a in argv]
    message = f"--field applies to builtins and seaweeds; {gl2_file} declares its field"
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("finite", "wua", "klein", "--field", "Fp:3"),
    ("--field", "Fp:3", "finite", "wua", "klein"),
    ("finite", "against", "klein", "z4", "--field", "Q"),
    ("--field", "Q", "finite", "against", "klein", "z4"),
    ("finite", "field", "--p", "5", "--field", "Fp:7"),
    ("--field", "Fp:7", "finite", "field", "--p", "5"),
    ("finite", "--field", "Q", "wua", "klein"),
    ("finite", "--field", "Fp:7", "field", "--p", "5"),
    ("catalog", "list", "--field", "Q"),
    ("--field", "Q", "catalog", "list"),
])
def test_field_flag_with_finite_or_catalog_is_a_usage_error(capsys, argv):
    """Finite rings carry their own tables, ``finite field`` its own p and
    the catalog lists every field: a given --field is refused with one line
    wherever it stands, not silently ignored."""
    command = "catalog" if "catalog" in argv else "finite"
    message = f"--field applies to builtins and seaweeds, not to {command}"
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_builtin_golden_records_hold_with_the_field_left_out_or_given_as_q(capsys):
    """Builtins and seaweeds read an absent --field as Q: every builtin record
    of the golden CLI corpus is reproduced, and a command without --field
    prints the same with --field Q given before or after the subcommand."""
    lines = (ROOT / "tests" / "golden" / "cli.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if "--builtin" in line]
    assert len(records) == 5
    for rec in records:
        argv = rec["case"].split()[1:]
        assert run_cli(capsys, *argv) == (rec["exit"], rec["stdout"], rec["stderr"]), argv
    for rec in records + [{"case": "ualie seaweed --n 4 --top 2,2 --bottom 4"}]:
        argv = rec["case"].split()[1:]
        if "--field" in argv:
            continue
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--field", "Q") == plain, argv
        assert run_cli(capsys, "--field", "Q", *argv) == plain, argv


def _gl2_with(**changes):
    data = build_catalog("gl", QQ, n=2).to_json_dict()
    data.update(changes)
    return data


def _gl2_first_coeffs(coeffs):
    data = _gl2_with()
    data["brackets"][0]["coeffs"] = coeffs
    return data


def _gl2_first_bracket(**changes):
    data = _gl2_with()
    data["brackets"][0].update(changes)
    return data


_Z2 = {"order": 2, "add": [[0, 1], [1, 0]], "bracket": [[0, 0], [0, 0]]}


def _z2_with(**changes):
    return {**_Z2, **changes}


MALFORMED_INPUTS = {
    "coeffs-list": (_gl2_first_coeffs([1]), "algebra"),
    "coeffs-bad-index": (_gl2_first_coeffs({"x": "1"}), "algebra"),
    "coeffs-number": (_gl2_first_coeffs({"1": 1}), "algebra"),
    "coeffs-duplicate-index": (_gl2_first_coeffs({"1": "1", "01": "1"}), "algebra"),
    "coeffs-decimal": (_gl2_first_coeffs({"1": "0.5"}), "algebra"),
    "coeffs-exponent": (_gl2_first_coeffs({"1": "1e20000000"}), "algebra"),
    "field-string": (_gl2_with(field="Q"), "algebra"),
    "field-p-float": (_gl2_with(field={"kind": "Fp", "p": 7.9}), "algebra"),
    "field-p-infinite": (_gl2_with(field={"kind": "Fp", "p": float("inf")}), "algebra"),
    "field-p-string": (_gl2_with(field={"kind": "Fp", "p": "7"}), "algebra"),
    "field-n-float": (_gl2_with(field={"kind": "Fq", "p": 2, "n": 2.7}), "algebra"),
    "field-modulus-float": (
        _gl2_with(field={"kind": "Fq", "p": 2, "n": 2, "modulus": [1, 1.0, 1]}), "algebra"),
    "brackets-number": (_gl2_with(brackets=5), "algebra"),
    "basis-names-number": (_gl2_with(basis_names=5), "algebra"),
    "basis-names-objects": (_gl2_with(basis_names=[1, {"x": 2}, "e3", "e4"]), "algebra"),
    "name-number": (_gl2_with(name=7), "algebra"),
    "dim-float": (_gl2_with(dim=4.7), "algebra"),
    "dim-bool": ({"field": {"kind": "Q"}, "dim": True, "brackets": []}, "algebra"),
    "dim-string": (_gl2_with(dim="4"), "algebra"),
    "dim-huge": ({"field": {"kind": "Q"}, "dim": 10**9}, "algebra"),
    "dim-negative": (_gl2_with(dim=-1), "algebra"),
    "bracket-index-float": (_gl2_first_bracket(i=0.9, j=1.5), "algebra"),
    "bracket-index-bool": (_gl2_first_bracket(i=False, j=True), "algebra"),
    "ring-order-0": ({"order": 0, "add": [], "bracket": []}, "ring"),
    "ring-order-float": (_z2_with(order=2.5), "ring"),
    "ring-order-bool": ({"order": True, "add": [[0]], "bracket": [[0]]}, "ring"),
    "ring-add-float": (_z2_with(add=[[0, 1], [1, 0.5]]), "ring"),
    "ring-bracket-bool": (_z2_with(bracket=[[False, 0], [0, 0]]), "ring"),
    "ring-row-string": (_z2_with(add=["01", "10"]), "ring"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_files_are_input_errors(capsys, tmp_path, case):
    """Each malformed file is refused with exit 1 and at once: every case
    here exits 0 or runs for seconds if the loader coerces its value."""
    data, kind = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if kind == "algebra":
        commands = (("validate", str(path)), ("analyze", str(path)))
    else:
        commands = (("finite", "wua", str(path)), ("finite", "against", str(path), str(path)))
    for argv in commands:
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 1, argv
        assert err.startswith("input error:") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("argv", [
    ("counterexample", "injection", "--builtin", "s2", "--field", "Fp:4294967311"),
], ids=["injection-p-past-2^32"])
def test_draws_past_32_bits_finish(capsys, argv):
    """A prime past 2^32 once made the injection sample a range wider than
    2^32, which never returned; the injection no longer draws at all."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("raw", [
    b"[" + b"1" * 5000 + b"]",  # past Python's limit on digits in an int literal
    b"[" * 200_000,  # past the decoder's recursion limit
    b"\xff\xfe{",  # not UTF-8
], ids=["int-5000-digits", "nested-200000", "not-utf8"])
def test_undecodable_json_is_an_input_error(capsys, tmp_path, raw):
    """Files that `json.load` fails on without a `JSONDecodeError` are
    refused as invalid JSON, at once and with no traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    for argv in (("validate", str(path)), ("finite", "wua", str(path))):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"input error: {path} is not valid JSON:"), (argv, err)
        assert "Traceback" not in err


def test_ring_file_failing_an_axiom_is_refused_and_named(capsys, tmp_path):
    """A ring file that breaks one axiom exits 1 with its first failure:
    ℤ/4 with 1+2 = 1 keeps + commutative with inverses but not associative,
    and ℤ/4 with [x,y] = 2xy has a biadditive antisymmetric bracket with
    [1,1] != 0.  The order-32 table a+b = max(a,b), a+a = 0, has no row
    past 0 that permutes the labels, and is refused as quickly."""
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    bad_add = [row[:] for row in z4]
    bad_add[1][2] = bad_add[2][1] = 1
    zero = [[0] * 4 for _ in range(4)]
    for add, bracket, message in (
        (bad_add, zero, "addition not associative at (1,1,2)"),
        (z4, [[2 * a * b % 4 for b in range(4)] for a in range(4)], "[x,x] != 0 at 1"),
        ([[max(a, b) if a != b else 0 for b in range(32)] for a in range(32)],
         [[0] * 32 for _ in range(32)], "addition not associative at (1,2,2)"),
    ):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"order": len(add), "add": add, "bracket": bracket}))
        assert run_cli(capsys, "finite", "wua", str(path)) == (
            1, "", f"input error: {path}: {message}\n")


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises
    `BrokenPipeError`.  Its descriptor is a file the test owns."""

    def __init__(self, fd):
        self.fd = fd
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_ends_output_quietly_with_the_commands_exit_code(
    capsys, monkeypatch, tmp_path, broken_file
):
    for argv, want in (
        (("analyze", "--builtin", "sl", "--n", "2"), 0),
        (("analyze", "--builtin", "sl", "--n", "2", "--text"), 0),
        (("validate", broken_file), 1),
    ):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            pipe = _ClosedPipe(fd)
            monkeypatch.setattr(sys, "stdout", pipe)
            code = cli.main(list(argv))
            monkeypatch.undo()
            # output stopped at the first failed write, and the descriptor
            # now points at devnull, so the flush at exit cannot fail
            assert (code, pipe.writes) == (want, 1), argv
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
    assert "Traceback" not in capsys.readouterr().err


def test_catalog_list_sorted_with_examples(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    entries = json.loads(out)["catalog"]
    names = [e["name"] for e in entries]
    assert names == sorted(names)
    assert {"gl", "sl", "heisenberg", "example_4_6", "example_5_7"} <= set(names)
    for e in entries:
        assert set(e) == {"name", "params", "example"}


def test_seaweed_ample(capsys):
    code, out, _ = run_cli(
        capsys, "seaweed", "--n", "2", "--top", "2", "--bottom", "2"
    )
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "UA" and d["rule"] == "AMPLE_SEAWEED"
    assert d["seaweed"]["ample"] is True
    assert d["witness"] == {"a": ["0", "0", "1/2"], "b": ["1", "1", "0"]}


def test_seaweed_non_ample(capsys):
    code, out, _ = run_cli(
        capsys, "seaweed", "--n", "4", "--top", "2,2", "--bottom", "2,2"
    )
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "NOT_UA" and d["seaweed"]["ample"] is False


def test_seaweed_bad_composition(capsys):
    code, _, err = run_cli(capsys, "seaweed", "--n", "4", "--top", "3,3", "--bottom", "4")
    assert code == 1  # well-formed flags, ill-formed mathematical input
    assert "composition" in err


@pytest.mark.parametrize("argv, code, message", [
    (("seaweed", "--n", "20000", "--top", "20000", "--bottom", "20000"), 1,
     "input error: seaweed(n=20000,top=20000,bottom=20000) would have dimension 399999999, "
     "past the cap 4096"),
    (("analyze", "--builtin", "heisenberg", "--k", "50000000"), 2,
     "usage error: heisenberg(50000000) would have dimension 100000001, past the cap 65536"),
    (("analyze", "--builtin", "sl", "--n", "3000"), 2,
     "usage error: sl(3000) would have dimension 8999999, past the cap 4096"),
    (("analyze", "--builtin", "gl", "--n", "100000"), 2,
     "usage error: gl(100000) would have dimension 10000000000, past the cap 4096"),
    (("analyze", "--builtin", "abelian", "--d", "100000000"), 2,
     "usage error: abelian(100000000) would have dimension 100000000, past the cap 65536"),
], ids=["seaweed-n-20000", "heisenberg-k-5e7", "sl-n-3000", "gl-n-1e5", "abelian-d-1e8"])
def test_oversized_builtins_and_seaweeds_are_refused_before_they_are_built(
        capsys, argv, code, message):
    """Each of these once built lists of the requested size and ended in a
    `MemoryError` traceback under a 600 MB address-space limit.  Each now
    exits at once with the code its command gives any bad parameter (1 for
    a seaweed, 2 for a builtin) and one line naming the cap."""
    start = time.perf_counter()
    assert run_cli(capsys, *argv) == (code, "", message + "\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv, message", [
    (("seaweed", "--n", "4", "--top", "3,3", "--bottom", "4"),
     "(3, 3) is not a composition of 4"),
    (("counterexample", "injection", "--builtin", "sl", "--n", "2"),
     "every element is a sum of commutators; no functional kills [g,g] only"),
    (("finite", "field", "--p", "4"), "4 is not prime"),
    (("analyze", "--builtin", "gl", "--n", "2", "--field", "Fq:2,2"),
     "bad field flag 'Fq:2,2' (expected Q or Fp:<p>)"),
    (("finite", "field", "--p", "5", "--n", "0"), "field degree n must be at least 1, got 0"),
    (("finite", "field", "--p", "5", "--n", "-1"), "field degree n must be at least 1, got -1"),
])
def test_refused_mathematical_input_is_an_input_error(capsys, argv, message):
    """Well-formed flags whose values the library refuses exit 1 with one
    `input error:` line and nothing on stdout."""
    assert run_cli(capsys, *argv) == (1, "", f"input error: {message}\n")


def test_extension_field_files_are_input_errors(capsys, tmp_path):
    """Only Q and F_p are algebra fields: a file over F_q exits 1 with one
    line naming them."""
    path = tmp_path / "gl2_f4.json"
    path.write_text(json.dumps(_gl2_with(field={"kind": "Fq", "p": 2, "n": 2})))
    for command in ("validate", "analyze"):
        assert run_cli(capsys, command, str(path)) == (
            1, "", f"input error: {path}: unknown field kind 'Fq' (expected Q or Fp)\n")


def test_counterexample_negcrit(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "negcrit", "--builtin", "gl", "--n", "2")
    assert code == 0
    d = json.loads(out)
    assert d["applicable"] is True and d["case"] == 2
    assert d["bijection"]["verified"] is True

    code, out, _ = run_cli(capsys, "counterexample", "negcrit", "--builtin", "sl", "--n", "2")
    assert code == 0
    assert json.loads(out)["applicable"] is False


def test_counterexample_injection(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "injection", "--builtin", "s2")
    assert code == 0
    d = json.loads(out)
    assert d["all_ok"] is True and d["functional"] == ["1", "0"]
    # commutators are proved, not sampled: there is no sample count to give
    code, _, err = run_cli(capsys, "counterexample", "injection", "--builtin", "s2",
                           "--samples", "5")
    assert code == 2 and "unrecognized arguments: --samples 5" in err

    code, _, err = run_cli(capsys, "counterexample", "injection", "--builtin", "sl", "--n", "2")
    assert code == 1  # perfect algebra: no such functional exists


def test_finite_builtins(capsys):
    code, out, _ = run_cli(capsys, "finite", "wua", "klein")
    assert code == 0
    d = json.loads(out)
    assert d["wua"] is True and d["order"] == 4

    code, out, _ = run_cli(capsys, "finite", "wua", "z5")
    assert code == 0
    d = json.loads(out)
    assert d["wua"] is False and d["counterexample"]["pair"] == [1, 2]


def test_finite_against(capsys):
    code, out, _ = run_cli(capsys, "finite", "against", "klein", "z4")
    assert code == 0
    d = json.loads(out)
    assert d["all_additive"] is False


def test_finite_ring_file(capsys, tmp_path):
    from ualie import finite as fin

    path = tmp_path / "z6.json"
    path.write_text(json.dumps(fin.cyclic_ring(6).to_json_dict()))
    code, out, _ = run_cli(capsys, "finite", "wua", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 6 and d["wua"] is False


def test_finite_oversize_ring_fails_before_tables(capsys, tmp_path, monkeypatch):
    """Past the enumeration cap, neither the z<m> tables nor the axiom
    check of a ring file is built before the refusal."""
    from ualie import finite as fin

    path = tmp_path / "z33.json"
    path.write_text(json.dumps(fin.cyclic_ring(33).to_json_dict()))

    def refuse(*args, **kwargs):
        raise AssertionError("built or validated a ring past the cap")

    monkeypatch.setattr(fin, "cyclic_ring", refuse)
    monkeypatch.setattr(fin.FiniteLieRing, "validate", refuse)
    for argv in (
        ("finite", "wua", "z33"),
        ("finite", "wua", str(path)),
        ("finite", "against", "z33", "z4"),
        ("finite", "against", "klein", str(path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "input error: enumeration capped at order 32\n")


def test_finite_field_report(capsys):
    code, out, _ = run_cli(capsys, "finite", "field", "--p", "5")
    assert code == 0
    d = json.loads(out)
    assert d["q"] == 5 and d["brute_count"] == 2
    assert d["nonadditive"]["k"] == 3


def test_finite_field_cap_is_checked_before_the_order_is_built(capsys):
    """3^30000000 has over 14 million digits; building it took about 20 s
    and printing it failed.  The cap is checked on the exponent first."""
    for n in ("9000", "30000000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "finite", "field", "--p", "3", "--n", n)
        assert time.perf_counter() - start < 0.5, n
        assert (code, out, err) == (1, "", f"input error: field order 3^{n} exceeds cap 512\n")


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "sl", "--n", "2", "--text")
    assert code == 0
    assert "verdict: UA" in out
    assert out.splitlines()[0] == "algebra: sl(2)"
    assert not out.lstrip().startswith("{")


@pytest.mark.parametrize("between, after", [
    (("finite", "--text", "wua", "klein"), ("finite", "wua", "klein", "--text")),
    (("finite", "--seed", "3", "field", "--p", "5"),
     ("finite", "field", "--p", "5", "--seed", "3")),
])
def test_global_flags_are_accepted_between_finite_and_its_mode(capsys, between, after):
    code, out, err = run_cli(capsys, *between)
    assert (code, err) == (0, "")
    assert out and run_cli(capsys, *after) == (0, out, "")


def test_seed_flag_position_is_irrelevant(capsys):
    c1, out1, _ = run_cli(capsys, "--seed", "99", "analyze", "--builtin", "example_5_7")
    c2, out2, _ = run_cli(capsys, "analyze", "--builtin", "example_5_7", "--seed", "99")
    assert c1 == c2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 99


def test_reports_are_byte_deterministic(capsys):
    runs = [
        run_cli(capsys, "analyze", "--builtin", "example_5_7", "--seed", "4242")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", ["-1", "0x10000000000000000", str(2**128 + 1), "seven"],
                         ids=["negative", "2**64", "2**128+1", "not-a-number"])
def test_seed_outside_64_bits_is_a_usage_error(capsys, seed):
    # a masked seed would run as another seed than the report prints
    code, out, err = run_cli(capsys, "analyze", "--builtin", "s2", "--seed", seed)
    assert (code, out) == (2, "")
    assert "--seed" in err


def test_seed_range_ends_are_accepted(capsys):
    for seed in ("0", str(2**64 - 1), "0xFFFFFFFFFFFFFFFF"):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "s2", "--seed", seed)
        assert code == 0
        assert json.loads(out)["seed"] == int(seed, 0)


_REMOVED_FLAGS = (("--trials", "3"), ("--B", "5"), ("--json",))


@pytest.mark.parametrize("argv", [
    *((*flag, "analyze", "--builtin", "s2") for flag in _REMOVED_FLAGS),
    *(("analyze", "--builtin", "s2", *flag) for flag in _REMOVED_FLAGS),
    ("finite", "--json", "wua", "klein"),
], ids=lambda argv: " ".join(argv))
def test_removed_global_flags_are_usage_errors(capsys, argv):
    """The C-condition's random stage is fixed, so ``--trials`` and ``--B``
    are gone, and so is ``--json``, which only re-selected the default."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ualie") and "error:" in err
    assert "Traceback" not in err


def test_analyze_help_names_only_the_remaining_global_flags(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--help")
    assert code == 0
    assert all(flag in out for flag in ("--seed", "--field", "--text"))
    assert not any(flag in out for flag in ("--trials", "--B", "--json"))


def _readme_section(title):
    text = (ROOT / "README.md").read_text()
    return text[text.index(f"\n## {title}\n"):].split("\n## ", 2)[1]


def test_readme_global_flags_are_the_root_parsers():
    """The README's "Global flags" paragraph names exactly the options the
    root parser accepts, so a flag added or removed shows as drift here."""
    paragraph = next(p for p in _readme_section("Command line").split("\n\n")
                     if p.startswith("Global flags"))
    named = set(re.findall(r"--[A-Za-z]+", paragraph))
    accepted = {o for a in cli._build_parser()._actions for o in a.option_strings}
    assert named == accepted - {"-h", "--help"}


def test_readme_commands_exit_0(capsys):
    """Every ``ualie`` line of the README's command block runs and exits 0,
    except those naming a placeholder ``path/to/`` file."""
    block = _readme_section("Command line").split("```")[1]
    commands = [shlex.split(line.split("#")[0]) for line in block.splitlines()
                if line.startswith("ualie ") and "path/to/" not in line]
    assert len(commands) >= 10
    for argv in commands:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "nosuchcmd")[0] == 2


def test_module_entry_point_subprocess():
    """One end-to-end check through a real process, stdout and exit code."""
    proc = subprocess.run(
        [sys.executable, "-m", "ualie.cli", "analyze", "--builtin", "s2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["verdict"] == "UA" and d["algebra"] == "s2"


def test_import_loads_every_layer_but_not_dataclasses(monkeypatch):
    """Every command runs in a fresh interpreter, so what ``import ualie.cli``
    loads is paid on each one.  ``dataclasses`` (with the ``inspect``, ``ast``,
    ``dis`` and ``tokenize`` it imports, and the methods it generates by
    ``exec``) cost about 20 ms of a ~140 ms command whose own work is under
    5 ms (Python 3.11, 2-vCPU VM).  ``ualie.finite`` is imported only by the
    ``finite`` commands, which saves about 8 ms on every other one.  The other
    layers stay eager: the benchmark tracer lists the ``ualie`` namespaces
    before it imports the layers, so a layer imported later gets no spans
    (no per-layer metric reads ``finite`` on the CLI workload), and the
    benchmark's CLI witness check reads ``ualie.constructions`` and
    ``ualie.scalars`` from ``sys.modules``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("tracer").LAYERS
    probe = ("import sys; bare = set(sys.modules); import ualie.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    added = set(proc.stdout.split())
    assert "dataclasses" not in added and "ualie.finite" not in added
    assert {f"ualie.{layer}" for layer in layers if layer != "finite"} <= added
