"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload builds its inputs in `setup` (untimed work, measured as
set-up time) and runs them once per `run_pass`, as a closed loop from one
thread: every call waits for the previous result. Each pass runs the same
inputs, so outputs and counts repeat exactly between passes and runs.

A solve fails when its status is not `converged`, when it reports
`infeasible` although the oracle is feasible, when its point is not
feasible, when zeta > eps1, or when its rate is below ETA_FLOOR times the
1001^2 oracle's. Failures are counted and reported with their reasons; no
input is dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

ETA_FLOOR = 0.98
ORACLE_GRID = 1001  # points per axis of the oracle and DF grids, as `semrelay compare`
LINE_GRID = 10001  # points of the equal-split and fixed-placement line searches
PAPER_BANDWIDTHS = (1e5, 1e6, 1e7)
# The random systems are one fixed draw (rng seed 7, the draw order of the
# tests: parameters, then fit). Fresh draws per seed were measured to move
# the median solve time by about 20% and goodput by about 65% (quartile
# spread over ten seeds at eight systems per run), because solve times
# range from milliseconds to a minute and a quarter of the solves fail.
RANDOM_DRAW_SEED = 7
RANDOM_SYSTEMS = 16
SWEEP_WINDOW = (1e5, 1e7)
SWEEP_POINTS = 3


class OpTimeout(Exception):
    """A timed call ran past its limit and was cut short."""


def _raise_timeout(signum, frame):
    raise OpTimeout("cut short by the run's time limit")


class Timer:
    """Times calls at the probe's nominal speed and bounds each one, so that
    one pathological input cannot hold the run past its deadline."""

    def __init__(self, probe, deadline: float, op_limit: float):
        self.probe = probe
        self.deadline = deadline  # time.monotonic() value
        self.op_limit = op_limit

    def call(self, fn, *args):
        """(result, scaled seconds, None), or (None, scaled seconds, reason)
        when the call raised or was cut short, which makes it a failed op."""
        t0 = time.perf_counter()
        remaining = min(self.op_limit, self.deadline - time.monotonic())
        if remaining <= 0:
            return None, 0.0, "not started: the run's deadline has passed"
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            out, error = fn(*args), None
        except OpTimeout as exc:
            out, error = None, str(exc)
        except Exception as exc:  # an op that raises is a failed op, not an aborted run
            traceback.print_exc(file=sys.stderr)
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return out, self.probe.scaled(t0, time.perf_counter()), error


def load_semrelay():
    """Import semrelay afresh, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "semrelay" or m.startswith("semrelay.")]:
        del sys.modules[name]
    sr = importlib.import_module("semrelay")
    importlib.import_module("semrelay.cli")
    return sr


@dataclass
class Op:
    kind: str  # "solve" | "reference" | "row"
    label: str
    failures: list
    eta_ratio: float | None = None


@dataclass
class PassResult:
    wall_s: float = 0.0  # closed-loop time of the timed calls
    ops: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)  # (seconds, passed) per run() call
    reference_s: list = field(default_factory=list)
    rows: int = 0
    fingerprint: list = field(default_factory=list)  # outputs that must repeat exactly
    errors: list = field(default_factory=list)  # failed checks that are not op failures


@dataclass(frozen=True)
class Reference:
    oracle: object
    df: object
    equal_bw: object
    fixed_place: object


def reference(sr, p, fit, alpha_floor):
    """The grid oracle and the three baselines: the work of `semrelay compare`
    besides the solve, in the order `compute_sweep` runs it."""
    og = sr.GridSpec(ORACLE_GRID, ORACLE_GRID, alpha_floor)
    lg = sr.GridSpec(LINE_GRID, LINE_GRID, alpha_floor)
    oracle = sr.oracle_search(p, fit, og)
    equal_bw = sr.equal_bandwidth_search(p, fit, lg)
    fixed_place = sr.fixed_placement_search(p, fit, lg)
    return Reference(oracle, sr.df_search(p, og), equal_bw, fixed_place)


def reference_failures(sr, p, fit, alpha_floor, ref) -> list[str]:
    """Check the reference against closed forms: the feasibility of the
    whole design space and the rate at each returned point."""
    m = sr.model
    feasible = m.snr_br_db(p, 0.0, alpha_floor) >= m.min_snr_threshold_db(fit)
    out = []
    if (ref.oracle is not None) != feasible:
        out.append(f"oracle feasible={ref.oracle is not None}, closed form says {feasible}")
    for name, pt in (("oracle", ref.oracle), ("equal_bw", ref.equal_bw),
                     ("fixed_place", ref.fixed_place)):
        if pt is None:
            continue
        if not feasible or not m.is_feasible(p, fit, pt):
            out.append(f"{name} returned an infeasible point")
        elif not math.isclose(m.effective_rate(p, fit, pt), pt.eta, rel_tol=1e-9):
            out.append(f"{name} rate does not match its point")
    if not math.isclose(sr.df_relay_rate(p, ref.df.d_br, ref.df.alpha_br), ref.df.eta,
                        rel_tol=1e-9):
        out.append("df rate does not match its point")
    return out


def solve_failures(sr, p, fit, cfg, status, zeta, best, oracle) -> list[str]:
    """Reasons a solve fails against its oracle; empty when it passes."""
    if oracle is None:
        return [] if status == "infeasible" else [f"status {status} on an infeasible system"]
    if status == "infeasible":
        return ["infeasible although the oracle is feasible"]
    out = []
    if status != "converged":
        out.append(f"status {status}")
    if best is None or not sr.model.is_feasible(p, fit, best):
        out.append("returned point is infeasible")
    if not zeta <= cfg.eps1:
        out.append(f"zeta {zeta:.3g} > eps1 {cfg.eps1:g}")
    if best is not None and not best.eta >= ETA_FLOOR * oracle.eta:
        out.append(f"eta {best.eta / oracle.eta:.4f} of the oracle's < {ETA_FLOOR}")
    return out


def _eta_ratio(best, status, oracle):
    if best is None or status == "infeasible" or oracle is None:
        return None
    return best.eta / oracle.eta


def _report_summary(report):
    best = None if report.best is None else dataclasses.astuple(report.best)
    return (report.status, report.zeta, report.inner_iters, report.outer_iters, best)


class _Workload:
    """The penalty settings and the timed, checked solve that every workload shares."""

    def __init__(self, cfg_overrides: dict | None = None):
        self.cfg_overrides = dict(cfg_overrides or {})

    @staticmethod
    def _record_solve(state, res, label, p, fit, solved, ref):
        """Judge a timed solve against its reference (None if that failed)."""
        report, seconds, timeout = solved
        ratio = None
        if report is None:
            failures = [timeout]
            res.fingerprint.append((label, "timeout"))
        else:
            res.fingerprint.append((label, _report_summary(report)))
            if ref is None:
                failures = ["no reference to check against"]
            else:
                failures = solve_failures(state.sr, p, fit, state.cfg, report.status,
                                          report.zeta, report.best, ref.oracle)
                ratio = _eta_ratio(report.best, report.status, ref.oracle)
        res.solve_s.append((seconds, not failures))
        res.ops.append(Op("solve", label, failures, ratio))


class PaperDefault(_Workload):
    """`run` on the default system at the ROADMAP's bandwidths; solver only."""

    name = "paper-default"

    def __init__(self, bandwidths=PAPER_BANDWIDTHS, cfg_overrides=None):
        super().__init__(cfg_overrides)
        self.bandwidths = tuple(bandwidths)

    def setup(self, sr, seed, out_dir, timer):
        cfg = sr.PenaltyConfig(**self.cfg_overrides)
        cases = [(f"W={w:g}", dataclasses.replace(sr.SystemParams(), W=w), sr.SigmoidFit())
                 for w in self.bandwidths]
        cases = [cases[i] for i in np.random.default_rng(seed).permutation(len(cases))]
        refs, reference_s, errors = [], [], []
        for label, p, fit in cases:
            ref, seconds, timeout = timer.call(reference, sr, p, fit, cfg.alpha_floor)
            refs.append(ref)
            if ref is None:
                errors.append(f"reference {label}: {timeout}")
                continue
            reference_s.append(seconds)
            errors += [f"reference {label}: {e}" for e in
                       reference_failures(sr, p, fit, cfg.alpha_floor, ref)]
        return SimpleNamespace(sr=sr, cfg=cfg, cases=cases, refs=refs, reference_s=reference_s,
                               errors=errors, fingerprint=repr((cases, refs)))

    def run_pass(self, state, timer) -> PassResult:
        res = PassResult()
        for (label, p, fit), ref in zip(state.cases, state.refs):
            solved = timer.call(state.sr.run, p, fit, state.cfg)
            res.wall_s += solved[1]
            self._record_solve(state, res, label, p, fit, solved, ref)
        return res


def random_fit(sr, rng):
    """The tests' random similarity fit (tests/oracles.py), kept here so
    that the benchmark's inputs do not move when the tests change."""
    a1 = rng.uniform(0.05, 0.6)
    a2 = rng.uniform(0.1, min(0.99 - a1, 0.9))
    c1 = rng.uniform(0.05, 1.0)
    c2 = rng.uniform(-5.0, 5.0)
    k = rng.uniform(1.0, 8.0)
    frac = rng.uniform(0.05, 0.95)
    return sr.SigmoidFit(a1=a1, a2=a2, c1=c1, c2=c2, K=k, eps_bar=a1 + frac * a2)


def random_params(sr, rng):
    """The tests' random system (tests/oracles.py); W spans four decades."""
    return sr.SystemParams(
        D=rng.uniform(20.0, 500.0),
        H=rng.uniform(0.0, 60.0),
        rho0_db=rng.uniform(-80.0, -40.0),
        beta=rng.uniform(2.0, 4.0),
        P_b=rng.uniform(0.01, 1.0),
        P_r=rng.uniform(0.01, 1.0),
        N0_dbm_hz=rng.uniform(-180.0, -150.0),
        W=10.0 ** rng.uniform(4.0, 8.0),
        mu=rng.uniform(8.0, 80.0),
    )


class RandomSystems(_Workload):
    """A solve and a reference per random system; covers the feasibility,
    start-point and failure paths and W over four decades."""

    name = "random-systems"

    def __init__(self, count=RANDOM_SYSTEMS, cfg_overrides=None):
        super().__init__(cfg_overrides)
        self.count = count

    def setup(self, sr, seed, out_dir, timer):
        rng = np.random.default_rng(RANDOM_DRAW_SEED)
        systems = []
        for i in range(self.count):
            p = random_params(sr, rng)
            systems.append((f"system {i} W={p.W:.3g}", p, random_fit(sr, rng)))
        systems = [systems[i] for i in np.random.default_rng(seed).permutation(self.count)]
        return SimpleNamespace(sr=sr, cfg=sr.PenaltyConfig(**self.cfg_overrides),
                               systems=systems, reference_s=[], errors=[],
                               fingerprint=repr(systems))

    def run_pass(self, state, timer) -> PassResult:
        sr, floor = state.sr, state.cfg.alpha_floor
        res = PassResult()
        for label, p, fit in state.systems:
            solved = timer.call(sr.run, p, fit, state.cfg)
            ref, seconds, timeout = timer.call(reference, sr, p, fit, floor)
            res.wall_s += solved[1] + seconds
            # The solve runs before its reference, as in `semrelay compare`,
            # and is judged once the oracle is known.
            self._record_solve(state, res, label, p, fit, solved, ref)
            if ref is None:
                res.ops.append(Op("reference", label, [timeout]))
                continue
            res.reference_s.append(seconds)
            res.ops.append(Op("reference", label, reference_failures(sr, p, fit, floor, ref)))
            res.fingerprint.append((label, repr(ref)))
        return res


class Sweep(_Workload):
    """`semrelay sweep` over a log-spaced grid on the default window."""

    name = "sweep"

    def __init__(self, points=SWEEP_POINTS, window=SWEEP_WINDOW, cfg_overrides=None):
        super().__init__(cfg_overrides)
        self.points = points
        self.window = window

    def setup(self, sr, seed, out_dir, timer):
        cfg = sr.PenaltyConfig(**self.cfg_overrides)
        ws = sr.cli.sweep_bandwidths(self.window[0], self.window[1], self.points, True)
        base, fit = sr.SystemParams(), sr.SigmoidFit()
        cases = [dataclasses.replace(base, W=w) for w in ws]
        refs, errors = [], []
        for p in cases:
            ref, _, timeout = timer.call(reference, sr, p, fit, cfg.alpha_floor)
            refs.append(ref)
            if ref is None:
                errors.append(f"reference W={p.W:g}: {timeout}")
                continue
            errors += [f"reference W={p.W:g}: {e}" for e in
                       reference_failures(sr, p, fit, cfg.alpha_floor, ref)]
        argv = ["sweep", "--w-min", repr(self.window[0]), "--w-max", repr(self.window[1]),
                "--points", str(self.points), "--log"]
        if self.cfg_overrides:
            config = out_dir / "sweep-config.txt"
            config.write_text("".join(f"{k}={v!r}\n" for k, v in self.cfg_overrides.items()))
            argv += ["--config", str(config)]
        return SimpleNamespace(sr=sr, cfg=cfg, fit=fit, cases=cases, refs=refs, argv=argv,
                               out_dir=out_dir, passes=0, reference_s=[], errors=errors,
                               fingerprint=repr((argv, refs)),
                               write_csv=sr.cli.write_sweep_csv, read_csv=sr.cli.read_sweep_csv)

    def run_pass(self, state, timer) -> PassResult:
        sr = state.sr
        res = PassResult()
        state.passes += 1
        path = state.out_dir / f"sweep-{state.passes}.csv"
        calls = []
        with _timed(sr.cli, ("run", "oracle_search", "equal_bandwidth_search",
                             "fixed_placement_search", "df_search"), calls, timer.probe):
            with contextlib.redirect_stdout(io.StringIO()):
                rc, res.wall_s, failure = timer.call(sr.cli.main,
                                                     state.argv + ["--out", str(path)])
            if failure is None and rc != 0:
                failure = f"sweep exited with code {rc}"
        labels = [f"W={p.W:g}" for p in state.cases]
        if failure is not None:
            res.ops = [Op("row", label, [failure]) for label in labels]
            res.solve_s = [(s, False) for name, s in calls if name == "run"]
            res.fingerprint = [failure]
            return res

        data = path.read_bytes()
        rows = state.read_csv(str(path))
        round_trip = path.with_suffix(".roundtrip.csv")
        state.write_csv(rows, str(round_trip))
        if round_trip.read_bytes() != data:
            res.errors.append("read_sweep_csv/write_sweep_csv round trip changed the CSV")
        round_trip.unlink()
        path.unlink()
        if [r.W for r in rows] != [p.W for p in state.cases]:
            res.errors.append(f"sweep rows are for W={[r.W for r in rows]}, "
                              f"expected {[p.W for p in state.cases]}")
        res.rows = len(rows)
        res.fingerprint = [hashlib.sha256(data).hexdigest()]

        per_row = []  # [solve seconds, reference seconds], in call order
        for name, seconds in calls:
            if name == "run":
                per_row.append([seconds, 0.0])
            else:
                per_row[-1][1] += seconds
        for row, p, ref, label, (solve_s, ref_s) in zip(rows, state.cases, state.refs, labels,
                                                        per_row):
            res.reference_s.append(ref_s)
            if ref is None:  # set-up could not compute it; already an error
                res.ops.append(Op("row", label, ["no reference to check against"]))
                res.solve_s.append((solve_s, False))
                continue
            res.errors += _column_errors(label, row, ref)
            best = None
            if row.eta_penalty is not None:
                best = sr.DesignPoint(row.d_br_opt, p.D - row.d_br_opt, row.alpha_br_opt,
                                      1.0 - row.alpha_br_opt,
                                      float(sr.snr_br_db(p, row.d_br_opt, row.alpha_br_opt)),
                                      row.eta_penalty)
            zeta = math.inf if row.zeta is None else row.zeta
            failures = solve_failures(sr, p, state.fit, state.cfg, row.status_penalty, zeta,
                                      best, ref.oracle)
            res.ops.append(Op("row", label, failures,
                              _eta_ratio(best, row.status_penalty, ref.oracle)))
            res.solve_s.append((solve_s, not failures))
        return res


def _column_errors(label, row, ref) -> list[str]:
    """Baseline columns of a sweep row against direct calls made in set-up."""
    expected = {
        "eta_oracle": ref.oracle.eta if ref.oracle else None,
        "eta_equal_bw": ref.equal_bw.eta if ref.equal_bw else None,
        "eta_fixed_place": ref.fixed_place.eta if ref.fixed_place else None,
        "eta_df": ref.df.eta,
    }
    return [f"row {label}: {name} = {getattr(row, name)!r}, direct call gives {value!r}"
            for name, value in expected.items() if getattr(row, name) != value]


@contextlib.contextmanager
def _timed(module, names, calls, probe):
    """Time each call of module.<name> (the calls a sweep row makes) into
    `calls` as (name, scaled seconds); one clock pair per call."""
    originals = {name: getattr(module, name) for name in names}

    def timer(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((name, probe.scaled(t0, time.perf_counter())))

        return wrapper

    for name, fn in originals.items():
        setattr(module, name, timer(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


WORKLOADS = {w.name: w for w in (PaperDefault, RandomSystems, Sweep)}
