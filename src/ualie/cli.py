"""Command-line front end.

Exit codes: 0 = a verdict or report was produced (UNKNOWN counts — the open
cases are open, not errors); 1 = the input failed validation or an analysis
precondition; 2 = usage error.  The global flags are --seed, --field and
--text (JSON is the default output).  The one randomized step, the
C-condition's fixed 64 random pairs under ``analyze`` and ``seaweed``, draws
from a child of the single --seed at a fixed offset, so reports are
byte-deterministic given the same inputs and flags; ``counterexample``
draws nothing.  ``analyze`` and
``counterexample`` read their algebra, a file or a ``--builtin``, through
one path that refuses a Jacobi failure naming the basis triple; a builtin
past its size cap is a usage error.  ``--field`` is a usage error where it
names nothing: with an algebra file, which declares its field, and for
``finite`` and ``catalog``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, constructions
from .errors import UalieError
from .liecore import StructureConstantAlgebra
from .rng import DEFAULT_SEED, MASK64
from .scalars import parse_field_flag


class _Usage(Exception):
    pass


class _InputError(Exception):
    pass


def _emit(payload: dict, args):
    try:
        if not args.text:
            print(json.dumps(payload, indent=2))
        else:
            for line in _text_lines(payload, ""):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``): send the rest to devnull, so the
        # flush at interpreter exit cannot fail again, and let the command
        # return its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _text_lines(value, prefix):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _text_lines(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, v in enumerate(value):
            yield from _text_lines(v, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {value}"


# ---------------------------------------------------------------------------
# input loading


def _read_json(path: str, hint: str = ""):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}{hint}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, encoding, digit limit, nesting
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_algebra(args) -> StructureConstantAlgebra:
    """The algebra file ``args.file``; it declares its field, so ``--field`` is refused."""
    if args.field is not None:
        raise _Usage(f"--field applies to builtins and seaweeds; {args.file} declares its field")
    try:
        return StructureConstantAlgebra.from_json_dict(_read_json(args.file))
    except UalieError as exc:
        raise _InputError(f"{args.file}: {exc}") from exc


def _resolve_algebra(args) -> StructureConstantAlgebra:
    """The --builtin or file algebra of ``analyze`` and ``counterexample``,
    refused when it fails the Jacobi identity."""
    if args.builtin:
        field = parse_field_flag(args.field or "Q")
        try:
            g = constructions.build_catalog(args.builtin, field, n=args.n, k=args.k, d=args.d)
        except UalieError as exc:
            raise _Usage(str(exc)) from exc
    elif args.file:
        g = _load_algebra(args)
    else:
        raise _Usage("provide an input file or --builtin NAME")
    g.validate().require_ok()
    return g


_FINITE_BUILTINS = ("klein", "z<m>", "heisenberg_f2", "heisenberg_f3")


def _load_ring(source: str):
    """A builtin or file ring, refused when its order is past the
    enumeration cap.  A file's tables are read and their shape checked
    first; the cap applies before the ring-axiom check."""
    from . import finite  # imported here: only the finite commands need it

    if source == "klein":
        return finite.klein_ring()
    if source.startswith("z") and source[1:].isdigit():
        m = int(source[1:])
        finite.require_enumerable(m)
        return finite.cyclic_ring(m)
    if source in ("heisenberg_f2", "heisenberg_f3"):
        p = 2 if source.endswith("2") else 3
        from .scalars import PrimeField

        return finite.from_algebra(
            constructions.build_heisenberg(PrimeField(p), 1))
    data = _read_json(source, f" (builtins: {', '.join(_FINITE_BUILTINS)})")
    try:
        ring = finite.FiniteLieRing.from_json_dict(data, name=source)
    except UalieError as exc:
        raise _InputError(f"{source}: {exc}") from exc
    finite.require_enumerable(ring.order)
    rep = ring.validate()
    if not rep.ok:
        raise _InputError(f"{source}: {rep.failures[0]}")
    return ring


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    g = _load_algebra(args)
    rep = g.validate()
    payload = {
        "file": args.file,
        "algebra": g.name,
        "field": g.field.to_json(),
        "dim": g.dim,
        "ok": rep.ok,
        "first_failure": None,
    }
    if not rep.ok:
        i, j, k, defect = rep.first_failure()
        payload["first_failure"] = {
            "triple": [i, j, k],
            "basis": [g.basis_names[i], g.basis_names[j], g.basis_names[k]],
            "defect": [g.field.format(c) for c in defect],
        }
        _emit(payload, args)
        print(
            f"Jacobi identity fails at basis triple "
            f"({g.basis_names[i]}, {g.basis_names[j]}, {g.basis_names[k]})",
            file=sys.stderr,
        )
        return 1
    _emit(payload, args)
    return 0


def _cmd_analyze(args) -> int:
    g = _resolve_algebra(args)
    report = analysis.verdict(g, seed=args.seed)
    _emit(report.to_json_dict(), args)
    return 0


def _parse_composition(text: str):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _Usage(f"bad composition {text!r}: comma-separated integers") from exc
    return parts


def _cmd_seaweed(args) -> int:
    field = parse_field_flag(args.field or "Q")
    top = _parse_composition(args.top)
    bottom = _parse_composition(args.bottom)
    spec = constructions.SeaweedSpec(args.n, top, bottom)
    report = analysis.seaweed_verdict(spec, field, seed=args.seed)
    _emit(report.to_json_dict(), args)
    return 0


def _cmd_catalog(args) -> int:
    entries = []
    for name in sorted(constructions.CATALOG):
        _, params = constructions.CATALOG[name]
        entries.append({
            "name": name,
            "params": list(params),
            "example": constructions.CATALOG_EXAMPLES.get(name, {}),
        })
    _emit({"catalog": entries}, args)
    return 0


def _cmd_finite(args) -> int:
    from . import finite

    if args.mode == "wua":
        ring = _load_ring(args.ring)
        wua, counterexample = finite.is_wua(ring)
        payload = {
            "ring": ring.name,
            "order": ring.order,
            "wua": wua,
            "counterexample": counterexample,
        }
    elif args.mode == "against":
        r = _load_ring(args.ring)
        s = _load_ring(args.target)
        ok, evidence = finite.ua_against(r, s)
        payload = {
            "ring": r.name,
            "target": s.name,
            "order": r.order,
            "all_additive": ok,
            "evidence": evidence,
            "note": ("non-additive bijection certifies the ring is not UA"
                     if not ok else
                     "no counterexample against this target; proves nothing global"),
        }
    else:  # field
        payload = finite.semigroup_aut_report(args.p, args.fn)
    _emit(payload, args)
    return 0


def _cmd_counterexample(args) -> int:
    g = _resolve_algebra(args)
    F = g.field
    if args.kind == "negcrit":
        res = analysis.negative_criterion(g)
        payload = {
            "algebra": g.name,
            "applicable": res is not None,
            "case": None if res is None else res.case,
            "bijection": None if res is None else res.to_json_dict(F),
            "note": "negative-criterion hypotheses do not hold" if res is None else None,
        }
    else:  # injection
        res = analysis.central_extension_injection(g)
        payload = {
            "algebra": g.name,
            "extended": res.extended.name,
            "extended_dim": res.extended.dim,
            "functional": [F.format(c) for c in res.functional],
            "x1": [F.format(c) for c in res.x1],
            "witness_pair": [[F.format(c) for c in w] for w in res.witness_pair],
            "obligations": [{"check": t, "ok": ok} for t, ok in res.obligations],
            "all_ok": res.all_ok,
        }
    _emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError(f"seed {text} is outside [0, 2**64)")
    return value


def _add_run_flags(parser, suppress: bool):
    """The global flags, attachable before or after the subcommand.

    The after-subcommand copies default to SUPPRESS so they only override
    the root values when actually given.
    """
    sup = argparse.SUPPRESS

    def dflt(v):
        return sup if suppress else v

    parser.add_argument("--seed", type=_seed, default=dflt(DEFAULT_SEED),
                        help="64-bit master seed (default 0x5EED5EED5EED5EED)")
    parser.add_argument("--text", action="store_true", default=dflt(False),
                        help="flat key: value lines instead of JSON")
    parser.add_argument("--field", default=dflt(None),
                        help="Q | Fp:<p>, for builtins and seaweeds (default Q)")


def _add_algebra_input(parser):
    """The algebra of ``analyze`` and ``counterexample``: a file or a builtin.

    Not a parent parser: a parent's positionals would come before the
    command's own, and ``counterexample KIND FILE`` would read FILE as KIND.
    """
    parser.add_argument("file", nargs="?", default=None)
    parser.add_argument("--builtin", default=None, help="catalog name (see: catalog list)")
    for key in ("n", "k", "d"):
        parser.add_argument(f"--{key}", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ualie",
        description="Decide (or report as open) the unique-addition property "
                    "for Lie algebras and small finite Lie rings.",
    )
    _add_run_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_run_flags(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a structure-constant file")
    p.add_argument("file")

    p = sub.add_parser("analyze", parents=[common], help="full verdict for an algebra")
    _add_algebra_input(p)

    p = sub.add_parser("seaweed", parents=[common],
                       help="verdict for a seaweed subalgebra of sl_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", required=True, help="composition, e.g. 2,2")
    p.add_argument("--bottom", required=True, help="composition, e.g. 4")

    p = sub.add_parser("catalog", parents=[common], help="list builtin algebras")
    p.add_argument("action", choices=["list"])

    p = sub.add_parser("finite", parents=[common], help="brute force on finite Lie rings")
    fsub = p.add_subparsers(dest="mode", required=True)
    f = fsub.add_parser("wua", parents=[common],
                        help="is every self-bijection additive?")
    f.add_argument("ring", help=f"file or builtin ({', '.join(_FINITE_BUILTINS)})")
    f = fsub.add_parser("against", parents=[common],
                        help="test against one explicit target ring")
    f.add_argument("ring")
    f.add_argument("target")
    f = fsub.add_parser("field", parents=[common],
                        help="multiplicative semigroup automorphisms of F_q")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--n", dest="fn", type=int, default=1)

    p = sub.add_parser("counterexample", parents=[common],
                       help="explicit non-additive constructions")
    p.add_argument("kind", choices=["negcrit", "injection"])
    _add_algebra_input(p)

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "seaweed": _cmd_seaweed,
    "catalog": _cmd_catalog,
    "finite": _cmd_finite,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.field is not None and args.command in ("finite", "catalog"):
            raise _Usage(f"--field applies to builtins and seaweeds, not to {args.command}")
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except UalieError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
