"""Names, units and directions of every metric the benchmark reports.

This module is the single list the runner emits and the self-test checks
against BENCHMARK.json. Each per-layer metric names the end-to-end metric it
should move and on which workload, so a change that claims a gain on one
layer can be checked against the figure it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    note: str  # end-to-end: definition; per-layer: what it should move
    bound: float | None = None  # gated end-to-end metrics only


# Emitted with --trace 0 on every workload and gated by BENCHMARK.json. Every
# time is wall time scaled to the probe's nominal CPU speed (probe.py).
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median of 3 set-ups: import of semrelay, input generation, untimed references",
           0.25),
    Metric("solves_per_s", "1/s", "higher",
           "goodput: successful run() calls per second of closed-loop time", 0.25),
    Metric("solve_s.p50", "s", "lower", "median time of a successful run()", 0.25),
    Metric("solve_s.tail", "s", "lower",
           "highest percentile of successful run() times with >= 10 samples beyond it; "
           "p50 while there are fewer than 20 samples", 0.25),
    Metric("reference_s.p50", "s", "lower",
           "median time of one reference: 1001^2 oracle, 1001^2 DF relay and two "
           "10001-point line baselines", 0.25),
    Metric("eta_ratio.min", "ratio", "higher",
           "minimum over feasible solves of eta_run / eta_oracle(1001^2)", 0.05),
    Metric("peak_rss_mb", "MB", "lower", "peak resident set size of the process", 0.1),
)

# Printed with --trace 0 but not gated: fail_frac is 0 on the workloads whose
# solves all pass, and sweep rows exist only on the sweep workload.
REPORTED = (
    Metric("sweep_rows_per_s", "1/s", "higher",
           "rows per second of `semrelay sweep` (sweep only)"),
    Metric("fail_frac", "ratio", "lower", "failed ops / attempted ops"),
)

_SOLVE = "solves_per_s, solve_s.p50 on paper-default and random-systems"

# Emitted with --trace 1 on every workload.
PER_LAYER = (
    Metric("penalty.phases", "count", "lower",
           _SOLVE + "; the seed's count is fixed by log(1e-15/lambda0)/log(c)"),
    Metric("penalty.cycles", "count", "lower", _SOLVE),
    Metric("penalty.self_s", "s", "lower", _SOLVE),
    Metric("penalty.status.converged", "count", "higher", "fail_frac on random-systems"),
    Metric("penalty.status.iteration_cap", "count", "lower", "fail_frac on random-systems"),
    Metric("penalty.status.infeasible", "count", "lower", "fail_frac on random-systems"),
    Metric("subproblems.placement.calls", "count", "lower", "solve_s.p50"),
    Metric("subproblems.placement.s", "s", "lower", "solve_s.p50"),
    Metric("subproblems.placement.infeasible", "count", "lower", "fail_frac on random-systems"),
    Metric("subproblems.placement.max_iter", "count", "lower", "fail_frac on random-systems"),
    Metric("subproblems.bandwidth.calls", "count", "lower", "solve_s.p50"),
    Metric("subproblems.bandwidth.s", "s", "lower", "solve_s.p50"),
    Metric("subproblems.bandwidth.infeasible", "count", "lower", "fail_frac on random-systems"),
    Metric("subproblems.bandwidth.max_iter", "count", "lower", "fail_frac on random-systems"),
    Metric("subproblems.auxiliary.calls", "count", "lower", "solve_s.p50"),
    Metric("subproblems.self_s", "s", "lower", "solve_s.p50 (includes barrier callbacks)"),
    Metric("barrier.solves", "count", "lower", "solve_s.p50 on paper-default; not reference_s.p50"),
    Metric("barrier.s", "s", "lower", "solve_s.p50 on paper-default; not reference_s.p50"),
    Metric("barrier.callback_s", "s", "lower", "solve_s.p50 on paper-default"),
    Metric("barrier.self_s", "s", "lower",
           "solve_s.p50 on paper-default (mostly np.linalg.solve dispatch)"),
    Metric("barrier.unconverged", "count", "lower", "fail_frac on random-systems"),
    Metric("barrier.centerings", "count", "lower", "solve_s.p50 on paper-default"),
    Metric("barrier.newton_steps", "count", "lower", "solve_s.p50 on paper-default"),
    Metric("barrier.linesearch_evals", "count", "lower", "solve_s.p50 on paper-default"),
    Metric("barrier.step_accept_ratio", "ratio", "higher", "solve_s.p50 on paper-default"),
    Metric("model.scalar_calls", "count", "lower", "solve_s.p50, slightly (small share)"),
    Metric("model.scalar_s", "s", "lower", "solve_s.p50, slightly (small share)"),
    Metric("baselines.oracle.calls", "count", "lower",
           "reference_s.p50 on random-systems, sweep_rows_per_s; not paper-default"),
    Metric("baselines.oracle.s", "s", "lower",
           "reference_s.p50 on random-systems, sweep_rows_per_s; not paper-default"),
    Metric("baselines.df.calls", "count", "lower", "reference_s.p50, sweep_rows_per_s"),
    Metric("baselines.df.s", "s", "lower", "reference_s.p50, sweep_rows_per_s"),
    Metric("baselines.line.calls", "count", "lower", "reference_s.p50, sweep_rows_per_s"),
    Metric("baselines.line.s", "s", "lower", "reference_s.p50, sweep_rows_per_s"),
    Metric("baselines.grid_points", "count", "lower", "reference_s.p50, sweep_rows_per_s"),
    Metric("baselines.points_per_s", "1/s", "higher", "reference_s.p50, sweep_rows_per_s"),
    Metric("cli.rows", "count", "higher", "sweep_rows_per_s"),
    Metric("cli.csv_bytes", "B", "lower", "sweep_rows_per_s (predicted negligible)"),
    Metric("cli.csv_write_s", "s", "lower", "sweep_rows_per_s (predicted negligible)"),
    Metric("cli.self_s", "s", "lower", "sweep_rows_per_s (predicted negligible)"),
    Metric("trace.overhead_s", "s", "lower", "traced minus untraced time of one pass"),
    Metric("trace.overhead_frac", "ratio", "lower", "trace.overhead_s / untraced pass wall time"),
)
