"""Spans and counters recorded around the public calls of each semrelay layer.

The tracer replaces module attributes for the duration of a traced pass and
restores them afterwards; `src/semrelay` itself carries no instrumentation.
Coarse calls (run, the block solves, barrier.maximize, the baselines and
the CLI entry points) each open a span. Fine-grained calls are counted and
timed without a span of their own: the barrier callbacks (about 400k per
solve, counted per enclosing maximize span), the scalar model calls that
`penalty` makes, `solve_auxiliary` and `violation`. Spans stay in memory and
are written out once, when the benchmark ends.

A layer's self time is its spans' durations minus the time their child
spans and counted calls cover, plus the time of the counted calls that
belong to it. The barrier callbacks are closures built by `subproblems`,
so their time counts as subproblems self time. Per-layer times are plain
wall time, not scaled by the speed probe.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_MODEL_SCALARS = (
    "snr_br_db",
    "semantic_similarity",
    "semantic_bit_rate",
    "bit_rate_ru",
    "min_snr_threshold_db",
)
# Public baseline function, span name, grid points it evaluates.
_BASELINES = (
    ("oracle_search", "baselines.oracle", lambda g: g.n_d * g.n_alpha),
    ("df_search", "baselines.df", lambda g: g.n_d * g.n_alpha),
    ("equal_bandwidth_search", "baselines.line", lambda g: g.n_d),
    ("fixed_placement_search", "baselines.line", lambda g: g.n_alpha),
)


class Span:
    __slots__ = ("name", "sid", "parent", "root", "t0", "t1", "counted_s", "attrs")

    def __init__(self, name, sid, parent):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.root = parent.root if parent is not None else sid
        self.counted_s = 0.0  # time of counted calls made directly inside this span
        self.attrs = {}

    def to_json(self):
        return {
            "id": self.sid,
            "parent": None if self.parent is None else self.parent.sid,
            "root": self.root,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.grid_points = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, len(spans), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if after is not None:
                after(span, args, out)
            return out

        return wrapper

    def _counted(self, counter, layer, fn):
        stack, counts, seconds, clock = self._stack, self.counts, self.seconds, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            counts[counter] += 1
            seconds[layer] += dt
            if stack:
                stack[-1].counted_s += dt
            return out

        return wrapper

    def _maximize(self, fn):
        stack, counts, seconds, clock = self._stack, self.counts, self.seconds, time.perf_counter

        def counted_maximize(eval_full, eval_value, *args, **kwargs):
            full = value = centerings = accepted = 0
            callback_s = 0.0
            last_t = None
            after_value = False

            def full_cb(x, t):
                nonlocal full, centerings, accepted, callback_s, last_t, after_value
                t0 = clock()
                out = eval_full(x, t)
                callback_s += clock() - t0
                full += 1
                if t != last_t:
                    centerings += 1
                    last_t = t
                elif after_value:
                    accepted += 1  # the line search before this step accepted
                after_value = False
                return out

            def value_cb(x, t):
                nonlocal value, callback_s, after_value
                t0 = clock()
                out = eval_value(x, t)
                callback_s += clock() - t0
                value += 1
                after_value = True
                return out

            try:
                return fn(full_cb, value_cb, *args, **kwargs)
            finally:
                span = stack[-1]  # opened by the _span wrapper around this function
                span.counted_s = callback_s
                span.attrs.update(newton_steps=full, linesearch_evals=value,
                                  centerings=centerings)
                counts["barrier.newton_steps"] += full
                counts["barrier.linesearch_evals"] += value
                counts["barrier.centerings"] += centerings
                counts["barrier.accepted_steps"] += accepted
                seconds["subproblems"] += callback_s
                seconds["barrier.callback"] += callback_s

        return self._span("barrier.maximize", counted_maximize, self._after_maximize)

    # -- after-hooks ------------------------------------------------------

    def _after_run(self, span, args, report):
        key = report.status.replace("-", "_")
        self.counts[f"penalty.status.{key}"] += 1
        self.counts["report.inner_iters"] += report.inner_iters
        self.counts["report.outer_iters"] += report.outer_iters
        if span.attrs.get("placement_calls"):
            self.counts["penalty.finalized_runs"] += 1
        span.attrs["status"] = report.status

    def _after_maximize(self, span, args, out):
        if not out[1]:
            self.counts["barrier.unconverged"] += 1

    def _after_block(self, block):
        def after(span, args, sol):
            run_span = span.parent
            status = sol.status.replace("-", "_")
            self.counts[f"subproblems.{block}.{status}"] += 1
            span.attrs["status"] = sol.status
            if run_span is None:
                return
            if block == "placement":
                run_span.attrs["placement_calls"] = run_span.attrs.get("placement_calls", 0) + 1
                run_span.attrs["placement_infeasible"] = sol.status == "infeasible"
            elif sol.status == "infeasible" and run_span.attrs.get("placement_infeasible"):
                # Both blocks infeasible: run() returns mid-phase, before the
                # cycle is counted and before the phase's violation call.
                self.counts["penalty.double_infeasible"] += 1

        return after

    def _after_baseline(self, points):
        def after(span, args, out):
            grid = args[-1]  # the benchmark and the CLI pass the GridSpec positionally
            self.grid_points += points(grid)
            span.attrs["grid_points"] = points(grid)

        return after

    def _after_csv(self, span, args, out):
        rows, path = args[0], args[1]
        self.counts["cli.rows"] += len(rows)
        self.counts["cli.csv_bytes"] += os.path.getsize(path)

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self, sr):
        """Replace the traced attributes of the semrelay modules, then restore."""
        cli, penalty = sr.cli, sr.penalty
        patches = []

        def patch(module, attr, wrap):
            original = getattr(module, attr)
            patches.append((module, attr, original))
            setattr(module, attr, wrap(original))

        for module in (sr, cli):  # the benchmark calls the package, the sweep calls cli
            patch(module, "run", lambda fn: self._span("penalty.run", fn, self._after_run))
            for attr, name, points in _BASELINES:
                patch(module, attr, lambda fn, name=name, points=points:
                      self._span(name, fn, self._after_baseline(points)))
        patch(penalty, "solve_placement", lambda fn: self._span(
            "subproblems.placement", fn, self._after_block("placement")))
        patch(penalty, "solve_bandwidth", lambda fn: self._span(
            "subproblems.bandwidth", fn, self._after_block("bandwidth")))
        patch(penalty, "solve_auxiliary", lambda fn: self._counted(
            "subproblems.auxiliary.calls", "subproblems", fn))
        patch(penalty, "violation", lambda fn: self._counted(
            "penalty.violation_calls", "penalty", fn))
        for attr in _MODEL_SCALARS:
            patch(penalty, attr, lambda fn: self._counted("model.scalar_calls", "model", fn))
        patch(sr.barrier, "maximize", self._maximize)
        patch(cli, "main", lambda fn: self._span("cli.main", fn))
        patch(cli, "compute_sweep", lambda fn: self._span("cli.compute_sweep", fn))
        patch(cli, "write_sweep_csv",
              lambda fn: self._span("cli.write_sweep_csv", fn, self._after_csv))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, times and self times of everything traced so far."""
        dur = defaultdict(float)
        calls = Counter()
        child_s = defaultdict(float)
        for span in self.spans:
            d = span.t1 - span.t0
            dur[span.name] += d
            calls[span.name] += 1
            if span.parent is not None:
                child_s[span.parent.sid] += d
        self_s = defaultdict(float, {k: v for k, v in self.seconds.items() if "." not in k})
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            self_s[layer] += (span.t1 - span.t0) - child_s[span.sid] - span.counted_s

        c = self.counts
        double_inf = c["penalty.double_infeasible"]
        base_s = dur["baselines.oracle"] + dur["baselines.df"] + dur["baselines.line"]
        out = {
            "penalty.phases": c["penalty.violation_calls"] + double_inf,
            "penalty.cycles": calls["subproblems.placement"] - double_inf,
            "penalty.self_s": self_s["penalty"],
            "penalty.status.converged": c["penalty.status.converged"],
            "penalty.status.iteration_cap": c["penalty.status.iteration_cap"],
            "penalty.status.infeasible": c["penalty.status.infeasible"],
        }
        for block in ("placement", "bandwidth"):
            out[f"subproblems.{block}.calls"] = calls[f"subproblems.{block}"]
            out[f"subproblems.{block}.s"] = dur[f"subproblems.{block}"]
            out[f"subproblems.{block}.infeasible"] = c[f"subproblems.{block}.infeasible"]
            out[f"subproblems.{block}.max_iter"] = c[f"subproblems.{block}.max_iter"]
        accepted, evals = c["barrier.accepted_steps"], c["barrier.linesearch_evals"]
        out.update({
            "subproblems.auxiliary.calls": c["subproblems.auxiliary.calls"],
            "subproblems.self_s": self_s["subproblems"],
            "barrier.solves": calls["barrier.maximize"],
            "barrier.s": dur["barrier.maximize"],
            "barrier.callback_s": self.seconds["barrier.callback"],
            "barrier.self_s": self_s["barrier"],
            "barrier.unconverged": c["barrier.unconverged"],
            "barrier.centerings": c["barrier.centerings"],
            "barrier.newton_steps": c["barrier.newton_steps"],
            "barrier.linesearch_evals": evals,
            "barrier.step_accept_ratio": accepted / evals if evals else 0.0,
            "model.scalar_calls": c["model.scalar_calls"],
            "model.scalar_s": self.seconds["model"],
            "baselines.oracle.calls": calls["baselines.oracle"],
            "baselines.oracle.s": dur["baselines.oracle"],
            "baselines.df.calls": calls["baselines.df"],
            "baselines.df.s": dur["baselines.df"],
            "baselines.line.calls": calls["baselines.line"],
            "baselines.line.s": dur["baselines.line"],
            "baselines.grid_points": self.grid_points,
            "baselines.points_per_s": self.grid_points / base_s if base_s else 0.0,
            "cli.rows": c["cli.rows"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "cli.csv_write_s": dur["cli.write_sweep_csv"],
            "cli.self_s": self_s["cli"],
        })
        return out

    def cross_check(self) -> list[str]:
        """Compare the external counters with the solver's own SolveReports."""
        c = self.counts
        metrics = self.layer_metrics()
        inner, outer = c["report.inner_iters"], c["report.outer_iters"]
        cycles = metrics["penalty.cycles"]
        checks = [
            ("sum of SolveReport.inner_iters", inner,
             "placement calls minus double-infeasible cycles", cycles),
            ("sum of SolveReport.inner_iters", inner,
             "bandwidth calls minus double-infeasible cycles",
             metrics["subproblems.bandwidth.calls"] - c["penalty.double_infeasible"]),
            ("sum of SolveReport.inner_iters", inner,
             "solve_auxiliary calls minus one final projection per run",
             c["subproblems.auxiliary.calls"] - c["penalty.finalized_runs"]),
            ("sum of SolveReport.outer_iters", outer, "penalty.phases", metrics["penalty.phases"]),
        ]
        return [f"{a} = {x} but {b} = {y}" for a, x, b, y in checks if x != y]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
