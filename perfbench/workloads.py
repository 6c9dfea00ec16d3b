"""The benchmark's three workloads: seeded inputs, the ops, expected outputs.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns.  Ops are issued in passes; a pass holds every entry of
the workload's menu once, in an order the seed shuffles, and each op builds
its algebra or ring afresh so no cache carries over between ops.  The
program only ever sees the generated inputs; every output is checked after
its pass is timed, against values fixed here (see `checks`).

This module imports no ``ualie`` code at load time, so that `timed_setup`
measures the package import as part of set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import checks
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CLI_CHILD = os.path.join(BENCH_DIR, "cli_child.py")

# no op of a working program comes near this; it only bounds a hung run
OP_DEADLINE_S = 30.0
# the Heisenberg-over-F_3 count enumerates 48 * 6^8 maps and misses this
HEISENBERG_DEADLINE_S = 1.0


class DeadlineMissed(BaseException):
    """Raised from SIGALRM inside an op; a BaseException so no handler in the
    program under test can swallow it."""


@dataclass
class Op:
    label: str  # names the op in failure lines
    slot: str  # the menu entry it fills; ops of one slot do the same work
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # a failure reason, or None
    deadline_s: float = OP_DEADLINE_S


def run_op(op: Op):
    """Run one op under its deadline: ``(latency_s, output, error)``."""

    def on_alarm(signum, frame):
        raise DeadlineMissed

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    out, err = None, None
    t0 = time.perf_counter()
    try:
        out = op.run()
    except DeadlineMissed:
        err = f"missed its {op.deadline_s:g} s deadline"
    except Exception as exc:  # a failed op is reported, not fatal
        err = f"raised {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return latency, out, err


class Workload:
    name = ""
    modules: tuple = ()  # ualie modules imported at set-up
    # the tail percentile, fixed per workload so that a run of 30 s leaves
    # at least ten samples beyond it; a run goes on until it has that many ops
    tail_p = 90

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        for name in self.modules:
            importlib.import_module(name)
        self.prepare()

    def prepare(self):
        """Seeded input generation shared by every pass."""

    def pass_rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def make_pass(self, k: int) -> list:
        raise NotImplementedError

    def run_pass(self, ops):
        return [run_op(op) for op in ops]

    def traced_pass(self, k):
        """Pass ``k`` with span wrappers installed: ``(spans, results, wall_s)``."""
        ops = self.make_pass(k)
        probe = tracer.Tracer()
        probe.install()
        try:
            results = []
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                probe.op = i
                results.append(run_op(op))
            wall = time.perf_counter() - t0
        finally:
            probe.remove()
        return probe.spans, results, wall

    def counted_pass(self, k):
        """Pass ``k`` with field operations counted: ``(count, results)``."""
        probe = tracer.FieldOpCounter()
        probe.install()
        try:
            results = self.run_pass(self.make_pass(k))
        finally:
            probe.remove()
        return probe.count, results

    def extra_layer_metrics(self, untraced_results):
        return {"cli.interp_start_s": 0.0, "cli.import_s": 0.0, "cli.command_s": 0.0}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ualie(module):
    return sys.modules[f"ualie.{module}"]


# ---------------------------------------------------------------------------
# verdict_q: `ualie analyze --builtin` over Q, in process


VERDICT_MENU = (
    [("sl", {"n": n}) for n in range(3, 8)]
    + [("gl", {"n": n}) for n in range(4, 9)]
    + [("t", {"n": 6}), ("t", {"n": 8}), ("n", {"n": 6}), ("n", {"n": 8})]
    + [("heisenberg", {"k": 2}), ("heisenberg", {"k": 3})]
    + [("s2", {}), ("example_4_6", {}), ("example_5_7", {})]
)

# (verdict, rule, dim) per family.  sl_n and s2 have zero center and a
# commuting pair with disjoint centralizers; gl_n and t_n have a center that
# meets the derived subalgebra trivially (swap case 2); n_n and the
# Heisenberg algebras have their center inside the derived subalgebra
# (case 3); example_4_6 is perfect with a center and example_5_7 has zero
# center but no disjoint pair, so both stay open.
Q_EXPECTED = {
    "sl": ("UA", "C_CONDITION", lambda n: n * n - 1),
    "gl": ("NOT_UA", "NEG_CASE_2", lambda n: n * n),
    "t": ("NOT_UA", "NEG_CASE_2", lambda n: n * (n + 1) // 2),
    "n": ("NOT_UA", "NEG_CASE_3", lambda n: n * (n - 1) // 2),
    "heisenberg": ("NOT_UA", "NEG_CASE_3", lambda k: 2 * k + 1),
    "s2": ("UA", "C_CONDITION", lambda: 2),
    "example_4_6": ("UNKNOWN", "NONE", lambda: 6),
    "example_5_7": ("UNKNOWN", "NONE", lambda: 9),
}


class VerdictQ(Workload):
    name = "verdict_q"
    # A pass is 19 ops; sorted, the sl(6) and gl(8) samples (1.1 to 1.7 s,
    # overlapping) come 17th and 18th per pass, well apart from gl(7) below
    # (about 0.7 s) and sl(7) above (2 to 3 s).  For 5 to 8 passes p88 falls
    # inside that group rather than on the edge between two groups, and five
    # passes (about 30 s) leave more than ten samples beyond it.
    tail_p = 88
    modules = ("ualie.analysis", "ualie.constructions", "ualie.scalars")

    def make_pass(self, k):
        rng = self.pass_rng(k)
        entries = list(VERDICT_MENU)
        rng.shuffle(entries)
        return [self._op(family, params, rng.getrandbits(63)) for family, params in entries]

    def _op(self, family, params, op_seed):
        verdict, rule, dim_of = Q_EXPECTED[family]
        dim = dim_of(*params.values())

        def run():
            g = _ualie("constructions").build_catalog(family, _ualie("scalars").QQ, **params)
            if not g.validate().ok:
                raise ValueError("catalog algebra fails validate()")
            return _ualie("analysis").verdict(g, seed=op_seed).to_json_dict(), g.brackets

        def check(out):
            rep, brackets = out
            if rep["dim"] != dim:
                return f"dim {rep['dim']}, expected {dim}"
            return checks.check_report(rep, verdict, rule,
                                       lambda w: checks.witness_ok(brackets, dim, w))

        slot = f"{family}({','.join(f'{k}={v}' for k, v in params.items())})"
        return Op(f"verdict {slot} over Q, seed {op_seed}", slot, run, check)


# ---------------------------------------------------------------------------
# finite: table rings as `ualie finite` loads them, and F_p verdicts


# Commutator-preserving self-bijection counts.  Rings with the zero bracket
# give (N-1)!; the other order-8 counts are the ones the backtracking search
# and naive filtering agree on.  t(2)+F_2 and sl(2)/F_3 are the search's own
# counts.  For the Heisenberg ring over F_3 a map must permute the 8 nonzero
# classes mod the center like an element of GL_2(F_3) (48 choices, which
# also fix the action on the center) and may permute each class of 3 freely:
# 48 * 6^8 maps; the same argument over F_2 gives the 6 * 2^3 = 48 above.
FINITE_COUNTS = {
    "Z/1": 1, "Z/2": 1, "Z/3": 2, "Z/4": 6, "Z/5": 24, "Z/6": 120, "Z/7": 720,
    "Z/8": 5040, "klein": 6, "heisenberg(1)/F_2": 48, "abelian(3)/F_2": 5040,
    "sl(2)/F_2": 48, "t(2)/F_2": 8, "n(3)/F_2": 48,
    "t(2)+F_2": 41472, "sl(2)/F_3": 24, "heisenberg(1)/F_3": 48 * 6**8,
}
# weak unique addition: every commutator-preserving self-bijection additive
FINITE_WUA = {"Z/1": True, "Z/2": True, "Z/3": True, "klein": True, "sl(2)/F_3": True}
CRITERION_9 = list(FINITE_COUNTS)[:14]

# (family, p, params, verdict, rule): the swap criterion, then rings of order
# <= 32 where it is silent and the exhaustive WUA search runs
FP_MENU = [
    ("gl", 3, {"n": 2}, "NOT_UA", "NEG_CASE_2"),
    ("heisenberg", 3, {"k": 1}, "NOT_UA", "NEG_CASE_3"),
    ("t", 3, {"n": 3}, "NOT_UA", "NEG_CASE_2"),
    ("sl", 2, {"n": 2}, "NOT_UA", "NEG_CASE_3"),
    ("heisenberg", 5, {"k": 2}, "NOT_UA", "NEG_CASE_3"),
    ("s2", 2, {}, "UNKNOWN", "NONE"),
    ("s2", 3, {}, "UNKNOWN", "NONE"),
    ("s2", 5, {}, "UNKNOWN", "NONE"),
    ("sl", 3, {"n": 2}, "UNKNOWN", "NONE"),
]


def relabel(table, rng):
    """The same ring under a random permutation of its elements fixing 0."""
    n = len(table["add"])
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return {
        "order": n,
        "add": [[perm[table["add"][inv[a]][inv[b]]] for b in range(n)] for a in range(n)],
        "bracket": [[perm[table["bracket"][inv[a]][inv[b]]] for b in range(n)] for a in range(n)],
    }


class Finite(Workload):
    name = "finite"
    # not p95: the Heisenberg deadline (1 s) and t(2)+F_2 count (1.5 s) are
    # the top 3.4% of samples and would weigh on an estimate that close
    modules = ("ualie.finite", "ualie.analysis", "ualie.constructions", "ualie.scalars")

    def prepare(self):
        fin, con, sc = _ualie("finite"), _ualie("constructions"), _ualie("scalars")
        F2, F3 = sc.PrimeField(2), sc.PrimeField(3)
        rings = [fin.cyclic_ring(m) for m in range(1, 9)] + [fin.klein_ring()]
        for family, field, params in (
            ("heisenberg", F2, {"k": 1}), ("abelian", F2, {"d": 3}), ("sl", F2, {"n": 2}),
            ("t", F2, {"n": 2}), ("n", F2, {"n": 3}), ("sl", F3, {"n": 2}),
            ("heisenberg", F3, {"k": 1}),
        ):
            rings.append(fin.from_algebra(con.build_catalog(family, field, **params)))
        t2 = con.direct_sum(con.build_catalog("t", F2, n=2), con.build_catalog("abelian", F2, d=1))
        rings.append(fin.from_algebra(t2))
        rings[-1].name = "t(2)+F_2"
        self.tables = {r.name: {"order": r.order, "add": r.add, "bracket": r.bracket}
                       for r in rings}

    def make_pass(self, k):
        rng = self.pass_rng(k)
        plan = [(kind, name) for name in CRITERION_9 for kind in ("count", "wua", "naive")]
        plan += [("against", ("klein", "Z/4")), ("against", ("Z/4", "klein"))]
        plan += [(kind, name) for name in ("t(2)+F_2", "sl(2)/F_3") for kind in ("count", "wua")]
        plan += [("verdict", entry) for entry in FP_MENU]
        plan.append(("count", "heisenberg(1)/F_3"))
        rng.shuffle(plan)
        return [self._verdict_op(*what, rng.getrandbits(63)) if kind == "verdict"
                else self._table_op(kind, what, rng) for kind, what in plan]

    def _table_op(self, kind, what, rng):
        names = what if kind == "against" else (what,)
        tables = [relabel(self.tables[n], rng) for n in names]

        def load(table, name):
            ring = _ualie("finite").FiniteLieRing.from_json_dict(table, name=name)
            rep = ring.validate()
            if not rep.ok:
                raise ValueError(f"{name}: {rep.failures[0]}")
            return ring

        def run():
            fin = _ualie("finite")
            rings = [load(t, n) for t, n in zip(tables, names)]
            if kind == "count":
                return fin.commutator_bijections(rings[0])[0]
            if kind == "naive":
                return fin.naive_commutator_bijections(rings[0])
            if kind == "wua":
                return fin.is_wua(rings[0])
            return fin.ua_against(*rings)

        def check(out):
            if kind in ("count", "naive"):
                want = FINITE_COUNTS[names[0]]
                return None if out == want else f"count {out}, expected {want}"
            ok, evidence = out
            want = kind == "wua" and FINITE_WUA.get(names[0], False)
            if ok != want:
                return f"returned {ok}, expected {want}"
            if not ok and not checks.nonadditive_map_ok(tables[0], tables[-1], evidence):
                return "counterexample map is not a non-additive commutator-preserving bijection"
            return None

        deadline = HEISENBERG_DEADLINE_S if names == ("heisenberg(1)/F_3",) else OP_DEADLINE_S
        slot = f"{kind} {' vs '.join(names)}"
        return Op(f"finite {slot}", slot, run, check, deadline)

    def _verdict_op(self, family, p, params, verdict, rule, op_seed):
        def run():
            field = _ualie("scalars").PrimeField(p)
            g = _ualie("constructions").build_catalog(family, field, **params)
            if not g.validate().ok:
                raise ValueError("catalog algebra fails validate()")
            return _ualie("analysis").verdict(g, seed=op_seed).to_json_dict()

        slot = f"verdict {family}({','.join(f'{k}={v}' for k, v in params.items())}) over F_{p}"
        return Op(f"finite {slot}", slot, run, lambda rep: checks.check_report(rep, verdict, rule))


# ---------------------------------------------------------------------------
# cli: the README commands, one `python -m ualie.cli` child at a time


def seaweed_roots(n, top, bottom):
    """1-based positions (i, j): above the diagonal inside a top block,
    below it inside a bottom block."""
    roots = set()
    for parts, upper in ((top, True), (bottom, False)):
        start = 1
        for p in parts:
            block = range(start, start + p)
            roots.update((i, j) for i in block for j in block if (i < j) == upper and i != j)
            start += p
    return roots


def _cyclic_table(m):
    return {"add": [[(i + j) % m for j in range(m)] for i in range(m)],
            "bracket": [[0] * m for _ in range(m)]}


KLEIN_TABLE = {"add": [[i ^ j for j in range(4)] for i in range(4)], "bracket": [[0] * 4] * 4}


def _check_cli_report(verdict, rule, witness=None):
    return lambda out: checks.check_report(out, verdict, rule, witness)


def _sl2_witness(w):
    g = _ualie("constructions").build_catalog("sl", _ualie("scalars").QQ, n=2)
    return checks.witness_ok(g.brackets, g.dim, w)


def _check_finite_wua(want, table):
    def check(out):
        if out["wua"] != want:
            return f"wua {out['wua']}, expected {want}"
        if not want and not checks.nonadditive_map_ok(table, table, out["counterexample"]):
            return "counterexample map is not a non-additive commutator-preserving bijection"
        return None
    return check


def _check_against(out):
    if out["all_additive"]:
        return "klein vs Z/4 reported all additive"
    if not checks.nonadditive_map_ok(KLEIN_TABLE, _cyclic_table(4), out["evidence"]):
        return "evidence map is not a non-additive commutator-preserving bijection"
    return None


def _check_field(out):
    # F_5: the multiplicative automorphisms are x -> x^k with gcd(k, 4) = 1,
    # of which only the identity is additive
    got = (out["brute_count"], out["phi_q_minus_1"], out["additive_count"])
    if got != (2, 2, 1) or not out["nonadditive"]:
        return f"(brute, phi, additive) = {got}, expected (2, 2, 1) and a non-additive map"
    return None


def _check_negcrit(out):
    if not out["applicable"] or out["case"] != 2:
        return f"applicable {out['applicable']} case {out['case']}, expected case 2"
    return checks.check_swap(out["bijection"])


def _check_injection(out):
    if not out["all_ok"] or not all(o["ok"] for o in out["obligations"]):
        return "injection obligations fail"
    return None


CATALOG_NAMES = ["abelian", "example_4_6", "example_5_7", "gl", "heisenberg", "n", "s2", "sl", "t"]

CLI_MENU = [
    ("analyze --builtin sl --n 2", _check_cli_report("UA", "C_CONDITION", _sl2_witness)),
    ("analyze --builtin gl --n 2", _check_cli_report("NOT_UA", "NEG_CASE_2")),
    ("analyze --builtin heisenberg --k 1 --field Fp:3", _check_cli_report("NOT_UA", "NEG_CASE_3")),
    ("seaweed --n 4 --top 2,2 --bottom 4", _check_cli_report(
        "UA", "AMPLE_SEAWEED",
        lambda w: checks.seaweed_witness_ok(4, seaweed_roots(4, (2, 2), (4,)), w))),
    ("seaweed --n 4 --top 2,2 --bottom 2,2", _check_cli_report("NOT_UA", "NEG_CASE_2")),
    ("finite wua klein", _check_finite_wua(True, KLEIN_TABLE)),
    ("finite wua z5", _check_finite_wua(False, _cyclic_table(5))),
    ("finite against klein z4", _check_against),
    ("finite field --p 5", _check_field),
    ("counterexample negcrit --builtin gl --n 2", _check_negcrit),
    ("counterexample injection --builtin s2", _check_injection),
    ("catalog list", lambda out: None if [e["name"] for e in out["catalog"]] == CATALOG_NAMES
     else "catalog names differ"),
]


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


class Cli(Workload):
    name = "cli"
    modules = ("ualie.cli",)

    def prepare(self):
        self.commands = [(cmd.split() + ["--seed", str(self.seed)], check)
                         for cmd, check in CLI_MENU]
        self.first_stdout: dict = {}
        self.child_peak_kb = 0
        os.makedirs(OUT_DIR, exist_ok=True)

    def make_pass(self, k, mode=None):
        return [self._op(i, argv, check, mode) for i, (argv, check) in enumerate(self.commands)]

    def _op(self, index, argv, check_json, mode):
        if mode is None:
            cmd = [sys.executable, "-m", "ualie.cli", *argv]
        else:
            cmd = [sys.executable, CLI_CHILD, mode, self._child_out(index), *argv]

        def run():
            # os.wait4 reaps the child itself, so its peak RSS is known
            # apart from that of any other child of this process
            with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
                    tempfile.TemporaryFile(dir=OUT_DIR) as err:
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                return subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read())

        def check(proc):
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"
            # the seed is fixed for the run, so every run of a command
            # (traced or not) must print the same bytes
            first = self.first_stdout.setdefault(index, proc.stdout)
            if proc.stdout != first:
                return "stdout differs from an earlier run of the same command"
            try:
                out = json.loads(proc.stdout)
            except ValueError:
                return "stdout is not JSON"
            return check_json(out)

        return Op("cli ualie " + " ".join(argv), " ".join(argv[:-2]), run, check)

    def _child_out(self, index):
        return os.path.join(OUT_DIR, f"cli-child-{os.getpid()}-{index}.json")

    def _read_child(self, index):
        path = self._child_out(index)
        try:
            with open(path) as fh:
                return json.load(fh)
        except OSError:  # the child died before writing
            return None
        finally:
            if os.path.exists(path):
                os.remove(path)

    def traced_pass(self, k):
        spans, results = [], []
        t0 = time.perf_counter()
        for i, op in enumerate(self.make_pass(k, "trace")):
            results.append(run_op(op))
            base = len(spans)
            for rec in self._read_child(i) or []:
                rec[3] = rec[3] + base if rec[3] >= 0 else -1
                rec[4] = i
                spans.append(rec)
        return spans, results, time.perf_counter() - t0

    def counted_pass(self, k):
        results, count = [], 0
        for i, op in enumerate(self.make_pass(k, "count")):
            results.append(run_op(op))
            count += self._read_child(i) or 0
        return count, results

    def extra_layer_metrics(self, untraced_results):
        def wall(code):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        interp, imported = wall("pass"), wall("import ualie.cli")
        command = statistics.median(r[0] for r in untraced_results)
        return {"cli.interp_start_s": interp, "cli.import_s": imported - interp,
                "cli.command_s": command - imported}

    def peak_rss_mb(self):
        """The largest RSS of any command child run so far."""
        return self.child_peak_kb / 1024


WORKLOADS = {w.name: w for w in (VerdictQ, Finite, Cli)}


def timed_setup(name: str, seed: int):
    """Build and set up a workload: ``(workload, seconds)``."""
    t0 = time.perf_counter()
    wl = WORKLOADS[name](seed)
    wl.setup()
    return wl, time.perf_counter() - t0
