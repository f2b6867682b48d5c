"""Quick self-test of the benchmark at the smallest input sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json lists the metrics the runner emits, that every
named metric is emitted on every workload, that counts repeat exactly
between two runs, that a deliberately wrong rate is reported as a failed
op, and that the runner refuses a directory without src/semrelay. The
penalty schedule is shortened (c = 0.5) so that the test takes well under
a minute; it exits with code 1 and lists the problems if any check fails.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import run  # pins the BLAS threads before numpy loads
import metrics
import workloads

FAST = {"c": 0.5}


def small_workloads():
    return (
        workloads.PaperDefault((1e6,), FAST),
        workloads.RandomSystems(1, FAST),
        workloads.Sweep(2, (1e6, 1e7), FAST),
    )


class WrongEta:
    """A workload whose run() reports half of the rate it found."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def setup(self, sr, seed, out_dir, timer):
        true_run = sr.run

        def wrong_run(*args, **kwargs):
            report = true_run(*args, **kwargs)
            best = dataclasses.replace(report.best, eta=0.5 * report.best.eta)
            return dataclasses.replace(report, best=best)

        sr.run = sr.cli.run = wrong_run
        return self.inner.setup(sr, seed, out_dir, timer)

    def run_pass(self, state, timer):
        return self.inner.run_pass(state, timer)


def run_once(workload, trace, out_dir):
    result = run.measure(workload, 1, 0.0, trace, out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        summary = run.report(workload, SimpleNamespace(seed=1, trace=int(trace)), result)
    return summary, result


def check_spec(spec, problems):
    for key, listed in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        want = [(m.name, m.unit, m.better) for m in listed]
        if got != want:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds != {m.name: m.bound for m in metrics.END_TO_END}:
        problems.append("BENCHMARK.json bounds differ from metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")


def check_workload(workload, out_dir, problems):
    name = workload.name
    plain, _ = run_once(workload, False, out_dir)
    first, first_result = run_once(workload, True, out_dir)
    second, second_result = run_once(workload, True, out_dir)
    for label, summary, listed in (("untraced", plain, metrics.END_TO_END),
                                   ("traced", first, metrics.PER_LAYER)):
        if not summary["correct"]:
            problems.append(f"{name} {label}: correct is false")
        emitted = {k: v["unit"] for k, v in summary["metrics"].items()}
        if emitted != {m.name: m.unit for m in listed}:
            problems.append(f"{name} {label}: emitted {sorted(emitted)}")
    for m in metrics.PER_LAYER:
        if m.unit == "count" and first["metrics"][m.name] != second["metrics"][m.name]:
            problems.append(f"{name}: {m.name} differs between runs")
    for key in ("attempted", "failed"):
        if first[key] != second[key]:
            problems.append(f"{name}: {key} differs between runs")
    for key in ("eta_ratio.min", "fail_frac"):
        a, b = (run.end_to_end(r)[key][0] for r in (first_result, second_result))
        if a != b:
            problems.append(f"{name}: {key} differs between runs ({a} vs {b})")


def check_wrong_eta(workload, out_dir, problems):
    summary, result = run_once(WrongEta(workload), False, out_dir)
    solves = [op for p in result["passes"] for op in p.ops if op.kind in ("solve", "row")]
    caught = [op for op in solves if any("eta" in f for f in op.failures)]
    if not solves or len(caught) != len(solves) or summary["failed"] < len(solves):
        problems.append(f"{workload.name}: a halved rate was not reported as a failure")


def check_refuses_bare_directory(root, problems):
    bare = root / run.OUT_DIR / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    os.chdir(bare)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(root)
        bare.rmdir()
    if code == 0:
        problems.append("the runner did not refuse a directory without src/semrelay")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "semrelay" / "__init__.py").is_file():
        print("error: run from the root of a semrelay checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    problems = []
    check_spec(json.loads((root / "BENCHMARK.json").read_text()), problems)
    for workload in small_workloads():
        check_workload(workload, out_dir, problems)
    paper, _, sweep = small_workloads()
    check_wrong_eta(paper, out_dir, problems)
    check_wrong_eta(sweep, out_dir, problems)
    check_refuses_bare_directory(root, problems)
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
