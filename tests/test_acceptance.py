"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing test) and then asserts. The default sweep and
the reference solver run are computed once per session.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from semrelay.baselines import GridSpec, df_search, fixed_placement_search, oracle_search
from semrelay.cli import compute_sweep, main, sweep_bandwidths
from semrelay.model import (
    SigmoidFit,
    is_feasible,
    min_snr_threshold_db,
    semantic_similarity,
)
from semrelay.penalty import run
from semrelay.subproblems import TOL_SUB, rate_scale, solve_auxiliary
from oracles import projection_pair_oracle, random_fit
from test_bounds import run_gradient_suite, run_tightness_suite, run_validity_suite

ORACLE_GRID = GridSpec(1001, 1001)
SWEEP_POINTS = 20
SWEEP_W_MIN, SWEEP_W_MAX = 1e5, 1e7


def _verdict(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {state}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="session")
def sweep_w():
    return sweep_bandwidths(SWEEP_W_MIN, SWEEP_W_MAX, SWEEP_POINTS)


@pytest.fixture(scope="session")
def default_sweep(params, fit, cfg, sweep_w):
    return compute_sweep(params, fit, cfg, sweep_w)


@pytest.fixture(scope="session")
def oracle_points(params, fit, sweep_w):
    points = []
    for w in sweep_w:
        p = dataclasses.replace(params, W=w)
        points.append(oracle_search(p, fit, ORACLE_GRID))
    return points


def test_criterion_01_near_optimality(default_sweep):
    ratios = []
    for row in default_sweep:
        if row.eta_oracle is None:
            continue
        assert row.status_penalty == "converged"
        ratios.append(row.eta_penalty / row.eta_oracle)
    ok = bool(ratios) and min(ratios) >= 0.98
    assert _verdict(1, "near-optimality vs exhaustive search", ok,
                    f"worst eta ratio {min(ratios):.4f} over {len(ratios)} rows")


def test_criterion_02_crossover(default_sweep):
    last = default_sweep[-1]
    tail_ok = last.eta_df >= last.eta_penalty * (1.0 - 1e-3)
    exists = False
    for k, _ in enumerate(default_sweep):
        before = default_sweep[:k]
        if all(r.eta_penalty is not None and r.eta_penalty > r.eta_df for r in before):
            if tail_ok:
                exists = True
                break
    ok = exists and tail_ok
    assert _verdict(2, "relay-scheme crossover inside sweep", ok,
                    f"df/penalty at W_max = {last.eta_df / last.eta_penalty:.3f}")


def test_criterion_03_bandwidth_asymmetry(default_sweep, oracle_points):
    bad = []
    for row, opt in zip(default_sweep, oracle_points):
        if row.eta_oracle is None:
            continue
        if not (row.alpha_br_opt < 0.5 and opt.alpha_br < 0.5):
            bad.append((row.W, row.alpha_br_opt, opt.alpha_br))
    ok = not bad
    assert _verdict(3, "semantic hop gets under half the band on every row", ok,
                    f"{len(bad)} rows at or above 0.5, first: {bad[0] if bad else '-'}")


def test_criterion_04_placement_trend(default_sweep, oracle_points, params):
    cell = params.D / (ORACLE_GRID.n_d - 1)
    d_ru = [opt.d_ru for opt in oracle_points if opt is not None]
    violations = []
    for k in range(len(d_ru) - 1, 0, -1):
        # moving from W_k down to W_{k-1}, d_ru must not grow beyond one cell
        if d_ru[k - 1] > d_ru[k] + cell:
            violations.append((k, d_ru[k], d_ru[k - 1]))
    ok = not violations
    assert _verdict(4, "relay moves toward the user as bandwidth shrinks", ok,
                    f"{len(violations)} steps exceed one grid cell, worst: "
                    f"{max(violations, key=lambda v: v[2] - v[1]) if violations else '-'}")


def test_criterion_05_saturation(params, fit):
    lg = GridSpec(10001, 10001)
    fixed_lo = fixed_placement_search(dataclasses.replace(params, W=5e6), fit, lg)
    fixed_hi = fixed_placement_search(dataclasses.replace(params, W=1e7), fit, lg)
    oracle_lo = oracle_search(dataclasses.replace(params, W=5e6), fit, ORACLE_GRID)
    oracle_hi = oracle_search(dataclasses.replace(params, W=1e7), fit, ORACLE_GRID)
    fixed_growth = fixed_hi.eta / fixed_lo.eta - 1.0
    oracle_growth = oracle_hi.eta / oracle_lo.eta - 1.0
    ok = fixed_growth < 0.05 and oracle_growth > fixed_growth
    assert _verdict(5, "fixed-placement rate saturates between 5 and 10 MHz", ok,
                    f"fixed growth {fixed_growth:.1%}, oracle growth {oracle_growth:.1%}")


def test_criterion_06_constraint_equivalence():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        f = random_fit(rng)
        thresh = min_snr_threshold_db(f)
        g = rng.uniform(thresh - 30.0, thresh + 30.0, size=1000)
        sim_ok = semantic_similarity(f, g) >= f.eps_bar
        snr_ok = g >= thresh
        ties = np.abs(g - thresh) < 1e-9
        violations += int(np.sum((sim_ok != snr_ok) & ~ties))
    ok = violations == 0
    assert _verdict(6, "similarity floor equals SNR threshold on 1e6 draws", ok,
                    f"{violations} violations")


def test_criterion_07_surrogate_suite():
    tight = run_tightness_suite(n_points=10_000)
    valid = run_validity_suite(n_local=100, n_domain=1000)
    grad = run_gradient_suite(n_points=300)
    ok = tight < 1e-10 and valid <= 1e-9 and grad < 1e-6
    assert _verdict(7, "surrogate tightness, validity and gradient checks", ok,
                    f"tightness {tight:.2e}, validity {valid:.2e}, gradient {grad:.2e}")


def test_criterion_08_penalty_convergence(default_report, params, fit, cfg):
    slack = 10.0 * TOL_SUB * rate_scale(params, fit)
    monotone = all(
        np.diff(phase).min() >= -slack
        for phase in default_report.objective_trace
        if len(phase) > 1
    )
    converged = default_report.status == "converged" and default_report.zeta <= cfg.eps1
    feasible = is_feasible(params, fit, default_report.best)
    ok = monotone and converged and feasible
    assert _verdict(8, "penalty loop converges with monotone inner ascent", ok,
                    f"zeta {default_report.zeta:.2e}, monotone {monotone}, feasible {feasible}")


def test_criterion_09_projection_correctness():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
        d = tuple(rng.uniform(-100.0, 300.0, size=2))
        a = tuple(rng.uniform(-2.0, 4.0, size=2))
        big_d = rng.uniform(1.0, 400.0)
        (d_hat, a_hat) = solve_auxiliary(d, a, big_d)
        want_d = projection_pair_oracle(d[0], d[1], big_d)
        want_a = projection_pair_oracle(a[0], a[1], 1.0)
        scale_d = max(1.0, abs(d[0]), abs(d[1]), big_d)
        scale_a = max(1.0, abs(a[0]), abs(a[1]))
        worst = max(
            worst,
            abs(d_hat[0] - want_d[0]) / scale_d,
            abs(d_hat[1] - want_d[1]) / scale_d,
            abs(a_hat[0] - want_a[0]) / scale_a,
            abs(a_hat[1] - want_a[1]) / scale_a,
        )
    ok = worst <= 1e-12
    assert _verdict(9, "auxiliary projection matches quadratic oracle", ok,
                    f"worst scaled error {worst:.2e}")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["sweep", "--w-min", "5e5", "--w-max", "2e6", "--points", "3", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    capsys.readouterr()
    ok = Path(out1).read_bytes() == Path(out2).read_bytes()
    assert _verdict(10, "repeated sweeps emit byte-identical CSV", ok)
