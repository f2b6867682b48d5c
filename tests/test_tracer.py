"""The benchmark's tracer (`perfbench/tracer.py`) wraps semrelay's public
names from outside: `run`, the block solves and the model scalars as
`penalty` imports them, `barrier.maximize` with its two callbacks, the
baselines and the CLI entry points. A refactor that renames or drops one of
them breaks only traced benchmark runs, so this suite runs one traced solve
and one traced sweep, and a traced run whose blocks are both infeasible at
the start."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import semrelay
from semrelay import barrier, cli, penalty
from semrelay.model import SigmoidFit, SystemParams
from semrelay.penalty import PenaltyConfig
from oracles import random_fit, random_params

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # Leave no bytecode cache in perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_and_sweep_match_the_reports(tmp_path, monkeypatch):
    tracer = _load_tracer(monkeypatch).Tracer()
    modules = (semrelay, cli, penalty, barrier)
    before = [dict(vars(m)) for m in modules]
    config = tmp_path / "fast.txt"
    config.write_text("c=0.5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    with tracer.installed(semrelay):
        report = semrelay.run(SystemParams(W=1e6), SigmoidFit(), PenaltyConfig(c=0.5))
        assert report.status == "converged"
        assert cli.main(["sweep", "--w-min", "1e5", "--w-max", "1e7", "--points", "2",
                         "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    assert tracer.cross_check() == []
    metrics = tracer.layer_metrics()
    assert metrics["penalty.phases"] >= report.outer_iters
    for name in ("subproblems.placement.calls", "subproblems.bandwidth.calls",
                 "subproblems.auxiliary.calls", "barrier.newton_steps",
                 "barrier.linesearch_evals", "model.scalar_calls"):
        assert metrics[name] > 0, name
    assert metrics["cli.rows"] == 2 and metrics["baselines.oracle.calls"] == 2
    # Each barrier.maximize call centers once, at t_final.
    assert metrics["barrier.centerings"] == metrics["barrier.solves"] > 0
    for module, names in zip(modules, before):
        moved = [k for k, v in names.items() if vars(module).get(k) is not v]
        assert moved == [], (module.__name__, moved)


def test_traced_double_infeasible_run_is_counted(monkeypatch):
    # System 9 of the seeded draw, as in test_penalty's
    # test_both_blocks_infeasible_at_start: one phase, no cycle.
    rng = np.random.default_rng(7)
    for _ in range(10):
        p, f = random_params(rng), random_fit(rng)
    tracer = _load_tracer(monkeypatch).Tracer()
    with tracer.installed(semrelay):
        report = semrelay.run(p, f, PenaltyConfig())
    assert report.status == "infeasible" and report.outer_iters == 1
    assert tracer.cross_check() == []
    metrics = tracer.layer_metrics()
    assert metrics["penalty.phases"] == 1
    assert metrics["penalty.cycles"] == 0
    assert metrics["penalty.status.infeasible"] == 1
