"""Benchmark of the semrelay package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 30 --trace 0

The workloads are in workloads.py and the metrics in metrics.py. With
--trace 0 the run repeats whole passes over the workload's inputs while the
next pass still fits in --seconds (always at least one) and reports the
end-to-end metrics. With --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics and the tracing overhead; the spans go to
.perfbench/ when the run ends. Every time is scaled to the nominal CPU speed
of probe.py. Human-readable lines come first; the last line of standard
output is one JSON object.

The run imports semrelay from src/ of the current directory and exits with
code 2 when that is missing.
"""

import os

# One BLAS thread, pinned before numpy loads: the benchmark measures one
# closed-loop caller on one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 165.0  # every run must end within 180 s
OP_LIMIT_S = 120.0
OUT_DIR = ".perfbench"


def tail(samples):
    """(value, percentile, samples beyond it) for the highest percentile that
    has at least ten samples beyond it; the median below twenty samples."""
    n = len(samples)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    if pct == 50:
        return statistics.median(samples), 50, n // 2
    xs = sorted(samples)
    rank = math.ceil(pct / 100 * n)
    return xs[rank - 1], pct, n - rank


def measure(workload, seed, seconds, trace, out_dir: Path):
    """Set up, run the passes and return a result dict."""
    probe = SpeedProbe()
    with probe.running():
        timer = workloads.Timer(probe, time.monotonic() + RUN_DEADLINE_S, OP_LIMIT_S)
        setup_s, states = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            sr = workloads.load_semrelay()
            states.append(workload.setup(sr, seed, out_dir, timer))
            setup_s.append(probe.scaled(t0, time.perf_counter()))
        state = states[-1]
        errors = list(state.errors)
        if any(s.fingerprint != state.fingerprint for s in states):
            errors.append("set-ups built different inputs or references")

        tracer = None
        if trace:
            passes = [workload.run_pass(state, timer)]
            tracer = Tracer()
            with tracer.installed(state.sr):
                passes.append(workload.run_pass(state, timer))
            errors += [f"counter cross-check: {e}" for e in tracer.cross_check()]
        else:
            passes = []
            loop_start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(workload.run_pass(state, timer))
                last = time.perf_counter() - t0
                if time.perf_counter() - loop_start + last > seconds:
                    break
    for p in passes:
        errors += p.errors
    if any(p.fingerprint != passes[0].fingerprint for p in passes):
        errors.append("outputs differ between passes")
    return {
        "state": state,
        "states": states,
        "setup_s": setup_s,
        "passes": passes,
        "tracer": tracer,
        "errors": errors,
        "slowdown": probe.slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(result, passes=None):
    """End-to-end and reported metrics: name -> (value, samples, note)."""
    passes = result["passes"] if passes is None else passes
    wall = sum(p.wall_s for p in passes)
    ops = [op for p in passes for op in p.ops]
    solved = [s for p in passes for s, ok in p.solve_s if ok]
    goodput = len(solved) / wall if wall else 0.0
    references = [s for st in result["states"] for s in st.reference_s]
    references += [s for p in passes for s in p.reference_s]
    ratios = [op.eta_ratio for op in ops if op.eta_ratio is not None]
    failed = sum(1 for op in ops if op.failures)
    rows = sum(p.rows for p in passes)
    out = {
        "setup_s": (statistics.median(result["setup_s"]), len(result["setup_s"]), ""),
        "solves_per_s": (goodput, len(solved),
                         f"over {wall:.3f} s"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, ""),
    }
    note = ""
    if not solved:  # keep the metric defined; say that it covers failed calls
        solved = [s for p in passes for s, ok in p.solve_s]
        note = "no successful solve, over all run() calls; "
    if solved:
        value, pct, beyond = tail(solved)
        out["solve_s.p50"] = (statistics.median(solved), len(solved), note)
        out["solve_s.tail"] = (value, len(solved),
                               f"{note}p{pct}, {beyond} samples beyond"
                               + (" (fewer than 10)" if beyond < 10 else ""))
    if references:
        out["reference_s.p50"] = (statistics.median(references), len(references), "")
    out["eta_ratio.min"] = (min(ratios) if ratios else 0.0, len(ratios),
                            "" if ratios else "no feasible solve")
    if rows:
        out["sweep_rows_per_s"] = (rows / wall, rows, "")
    out["fail_frac"] = (failed / len(ops) if ops else 0.0, len(ops), f"{failed} failed")
    return out


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, args, result):
    """Print the human-readable lines and return the JSON result object."""
    env = environment()
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} slowdown={result['slowdown']:.3f} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    passes = result["passes"]
    for op in passes[0].ops:
        if op.failures:
            print(f"# FAIL {op.kind} {op.label}: " + "; ".join(op.failures))
    for err in result["errors"]:
        print(f"# ERROR {err}")
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if op.failures)

    if not args.trace:
        figures = end_to_end(result)
        print(f"# {'metric':<18} {'value':>12} {'unit':<6} {'better':<7} {'n':>4}  note")
        for m in metrics.END_TO_END + metrics.REPORTED:
            value, n, note = figures.get(m.name, (None, 0, "not measured by this workload"))
            print(f"# {m.name:<18} {_fmt(value) if value is not None else 'n/a':>12} "
                  f"{m.unit:<6} {m.better:<7} {n:>4}  {note}")
        values = {m.name: figures[m.name][0] for m in metrics.END_TO_END if m.name in figures}
        chosen = metrics.END_TO_END
    else:
        untraced, traced = (end_to_end(result, [p]) for p in passes)
        layers = result["tracer"].layer_metrics()
        overhead = passes[1].wall_s - passes[0].wall_s
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / passes[0].wall_s if passes[0].wall_s else 0.0
        print(f"# tracing overhead: untraced pass {passes[0].wall_s:.4f} s, "
              f"traced pass {passes[1].wall_s:.4f} s")
        for name in ("solves_per_s", "solve_s.p50", "reference_s.p50"):
            if name in untraced:
                u, t = untraced[name][0], traced[name][0]
                print(f"#   {name:<16} untraced {u:.6g}  traced {t:.6g}  "
                      f"difference {t - u:+.6g}")
        print(f"# {'metric':<34} {'value':>14} {'unit':<6} {'better':<7} should move")
        for m in metrics.PER_LAYER:
            print(f"# {m.name:<34} {_fmt(layers[m.name]):>14} {m.unit:<6} {m.better:<7} "
                  f"{m.note}")
        values = layers
        chosen = metrics.PER_LAYER
    missing = [m.name for m in chosen if m.name not in values]
    if missing:
        result["errors"].append(f"metrics not measured: {missing}")
        print(f"# ERROR metrics not measured: {missing}")
    return {
        "correct": not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in chosen if m.name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "semrelay" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'semrelay'} not found; run from the root of a "
              "semrelay checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.find_spec("semrelay")
    if spec is None or root.resolve() not in Path(spec.origin).resolve().parents:
        print(f"error: semrelay does not resolve to {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]()
    result = measure(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    summary = report(workload, args, result)
    if result["tracer"] is not None:
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        result["tracer"].write(str(trace_path))
        print(f"# spans written to {trace_path.relative_to(root)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
