"""End-to-end and per-layer benchmark of ualie.

    python3 perfbench/run.py --workload verdict_q --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the ops run untraced in whole passes until ``--seconds``
of op time has passed (at least two passes) and the end-to-end metrics are
reported.  With ``--trace 1`` one pass runs untraced, traced, untraced again,
then with field operations counted, and the per-layer metrics are reported; the
spans and the self-time tree go to ``perfbench/out/``.  The last line of
standard output is one JSON object; the lines before it name every failed
op and stamp the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 7  # set-ups per run: this process plus fresh interpreters
MIN_PASSES = 2
MATRIX_FAMILIES = ("sl", "gl", "t", "n")

def load_units():
    """Every metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def quantile(xs, p):
    """Harrell-Davis estimate of the ``p`` quantile (0 < p < 1) of ``xs``.

    A mean of the sorted samples, each weighted by the Beta((n+1)p,
    (n+1)(1-p)) probability of its share of [0, 1].  Ops of one menu entry
    form a cluster of latencies; where the middle sample would jump between
    two clusters as one sample moves, this estimate moves smoothly.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = 64  # midpoint-rule points per sample
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((j + 0.5) / (grid * n) for j in range(grid * n))]
    top = max(logs)
    weights = [math.fsum(math.exp(v - top) for v in logs[i * grid:(i + 1) * grid])
               for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def min_ops(tail_p):
    """Fewest samples that leave at least ten beyond percentile ``tail_p``."""
    return math.ceil(10 / (1 - tail_p / 100) - 1e-9)


def child_setup_seconds(workload, seed):
    code = ("import sys; sys.path[:0] = sys.argv[3:5]; import workloads; "
            "print(workloads.timed_setup(sys.argv[1], int(sys.argv[2]))[1])")
    proc = subprocess.run([sys.executable, "-c", code, workload, str(seed), BENCH_DIR, SRC],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def check_results(ops, results, first=0):
    """``(failed, incorrect, lines)``: every op that failed, named.

    An op that misses its deadline fails; an op that raises or whose output
    fails its check also makes the run incorrect.  Ops are numbered from
    ``first``.
    """
    failed = incorrect = 0
    lines = []
    for i, (op, (latency, out, err)) in enumerate(zip(ops, results), first):
        wrong = err is None and op.check(out)
        if err is None and not wrong:
            continue
        failed += 1
        if wrong or not err.startswith("missed"):
            incorrect += 1
        lines.append(f"FAILED op {i}: {op.label}: {wrong or err} ({latency:.3f} s)")
    return failed, incorrect, lines


def run_timed(wl, seconds):
    """Whole passes until ``seconds`` of op time: ``(latencies, phase_s,
    passes, failed, incorrect, lines)``.

    Each pass is checked after it is timed and its ops and outputs are then
    dropped, so that the benchmark's own memory does not grow with the
    number of passes a run fits.
    """
    latencies, lines = [], []
    failed = incorrect = 0
    phase = 0.0
    k = 0
    while phase < seconds or k < MIN_PASSES or len(latencies) < min_ops(wl.tail_p):
        ops = wl.make_pass(k)
        t0 = time.perf_counter()
        results = wl.run_pass(ops)
        phase += time.perf_counter() - t0
        f, i, ls = check_results(ops, results, len(latencies))
        failed, incorrect, lines = failed + f, incorrect + i, lines + ls
        latencies += [r[0] for r in results]
        k += 1
    return latencies, phase, k, failed, incorrect, lines


def end_to_end(wl, seconds, setup_samples, units):
    latencies, phase, passes, failed, incorrect, lines = run_timed(wl, seconds)
    tail_s = quantile(latencies, wl.tail_p / 100)
    beyond = sum(1 for x in latencies if x > tail_s)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / phase,
        "op_p50_s": quantile(latencies, 0.5),
        "op_tail_s": tail_s,
        "ops_ok_frac": 1 - failed / len(latencies),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "ops_per_s": f"{len(latencies)} ops in {passes} passes, {phase:.2f} s of op time",
        "op_tail_s": f"p{wl.tail_p:g} of {len(latencies)} samples, {beyond} beyond it",
        "ops_ok_frac": f"{failed} of {len(latencies)} ops failed",
        "peak_rss_mb": "children" if wl.name == "cli" else "this process",
    }
    for name, value in metrics.items():
        lines.append(f"{name:14s} {value:12.6g} {units[name]:6s} {notes.get(name, '')}")
    return metrics, len(latencies), failed, incorrect, lines


def per_layer(wl, seed, units):
    import tracer as tr

    ops = wl.make_pass(0)

    def untraced():
        t0 = time.perf_counter()
        results = wl.run_pass(ops)
        return results, time.perf_counter() - t0

    # untraced passes on both sides of the traced one, so that a machine
    # that speeds up or slows down during the run does not bias the ratio
    plain, before_s = untraced()
    spans, traced, traced_s = wl.traced_pass(0)
    plain_after, after_s = untraced()
    untraced_s = (before_s + after_s) / 2
    field_ops, counted = wl.counted_pass(0)

    metrics = {"scalars.field_ops": field_ops}
    metrics.update(tr.layer_metrics(spans))
    per_op = {}
    for rec in spans:
        if rec[0] == "liecore.center":
            per_op[rec[4]] = per_op.get(rec[4], 0) + 1
    matrix_ops = [i for i, op in enumerate(ops) if op.slot.split("(")[0] in MATRIX_FAMILIES]
    center_calls = [per_op.get(i, 0) for i in matrix_ops]
    metrics["liecore.center.calls_per_matrix_op"] = (
        statistics.mean(center_calls) if center_calls else 0.0)
    metrics.update(wl.extra_layer_metrics(plain))
    metrics["trace.overhead"] = traced_s / untraced_s

    failed, incorrect, lines = check_results(ops, traced)
    for results in (plain, plain_after, counted):
        incorrect += check_results(ops, results)[1]
    lines.append(f"trace: {len(spans)} spans; untraced pass {before_s:.3f} s before and "
                 f"{after_s:.3f} s after the traced pass, traced {traced_s:.3f} s, "
                 f"overhead x{metrics['trace.overhead']:.3f}")
    if center_calls:
        lines.append(f"fact: liecore.center calls per sl/gl/t/n op: min {min(center_calls)}, "
                     f"max {max(center_calls)} over {len(center_calls)} ops")
    lines.append(f"fact: kernels.int_rank spans with a kernels.rank_mod_p child: "
                 f"{metrics['kernels.int_rank.modp_child_frac']:.3f} of "
                 f"{metrics['kernels.int_rank.calls']}")
    tree = tr.self_time_tree(spans)
    lines.append("self-time tree (top 25 call paths by self time; calls, inclusive s, self s):")
    for path, (calls, incl, self_s) in sorted(tree.items(), key=lambda kv: -kv[1][2])[:25]:
        lines.append(f"  {'  ' * (len(path) - 1)}{path[-1]:40s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    for name, value in metrics.items():
        lines.append(f"{name:40s} {value:14.6g} {units[name]}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "env": environment(),
            "workload": wl.name,
            "seed": seed,
            "ops": [op.label for op in ops],
            "metrics": metrics,
            "tree": [{"path": list(p), "calls": v[0], "s": v[1], "self_s": v[2]}
                     for p, v in sorted(tree.items())],
            "span_fields": ["name", "start", "end", "parent", "op", "size", "result"],
            "spans": spans,
        }, fh)
    lines.append(f"spans and tree written to {os.path.relpath(path, ROOT)}")
    return metrics, len(ops), failed, incorrect, lines


def environment():
    import ualie._kernels

    return {
        "backend": ualie._kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ualie": os.path.relpath(sys.modules["ualie"].__file__, ROOT),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ualie", "__init__.py")):
        sys.exit(f"error: no ualie package under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [BENCH_DIR, SRC]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl, first = workloads.timed_setup(args.workload, args.seed)
    import ualie

    if not os.path.realpath(ualie.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported ualie from {ualie.__file__}, not from {SRC}")
    env = environment()
    print(f"env: backend={env['backend']} python={env['python']} nproc={env['nproc']} "
          f"ualie={env['ualie']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    units = load_units()
    if args.trace:
        metrics, attempted, failed, incorrect, lines = per_layer(wl, args.seed, units)
    else:
        samples = [first] + [child_setup_seconds(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
        metrics, attempted, failed, incorrect, lines = end_to_end(wl, args.seconds, samples, units)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
