import dataclasses

import numpy as np
import pytest

from semrelay import penalty, subproblems
from semrelay.baselines import GridSpec, oracle_search
from semrelay.cli import sweep_bandwidths
from semrelay.model import (
    DesignPoint,
    SigmoidFit,
    SystemParams,
    effective_rate,
    is_feasible,
    max_semantic_bandwidth,
    semantic_similarity,
    snr_br_db,
)
from semrelay.penalty import PenaltyConfig, _finalize, run, violation
from semrelay.subproblems import TOL_SUB, rate_scale, solve_placement
from oracles import random_fit, random_params


class TestViolation:
    def test_zero_when_equalities_hold(self):
        aux = ((50.0, 50.0), (0.5, 0.5))
        assert violation((50.0, 50.0), (0.5, 0.5), aux, 100.0) == 0.0

    def test_bandwidth_gap(self):
        aux = ((50.0, 50.0), (0.55, 0.45))
        assert violation((50.0, 50.0), (0.6, 0.5), aux, 100.0) == pytest.approx(0.05)

    def test_distance_gap_normalized(self):
        aux = ((50.0, 50.0), (0.5, 0.5))
        assert violation((50.0, 49.0), (0.5, 0.5), aux, 100.0) == pytest.approx(0.01)


class TestRunDefaults:
    def test_converges_to_accuracy(self, default_report, cfg):
        assert default_report.status == "converged"
        assert default_report.zeta <= cfg.eps1

    def test_every_block_solve_converges(self, default_report):
        assert default_report.max_iter_blocks == 0

    def test_best_point_feasible(self, default_report, params, fit):
        assert is_feasible(params, fit, default_report.best)
        assert default_report.best.eta > 0
        # the point meets the similarity floor exactly: it has a rate, its own
        assert effective_rate(params, fit, default_report.best) == default_report.best.eta

    def test_equalities_exact_after_projection(self, default_report, params):
        b = default_report.best
        assert b.d_br + b.d_ru == pytest.approx(params.D, abs=1e-9)
        assert b.alpha_br + b.alpha_ru == pytest.approx(1.0, abs=1e-12)

    def test_gamma_recomputed_from_point(self, default_report, params):
        b = default_report.best
        assert b.gamma_br_db == pytest.approx(
            float(snr_br_db(params, b.d_br, b.alpha_br)), abs=1e-12)

    def test_monotone_inner_traces(self, default_report, params, fit):
        slack = 10.0 * TOL_SUB * rate_scale(params, fit)
        for phase in default_report.objective_trace:
            diffs = np.diff(phase)
            assert diffs.size == 0 or diffs.min() >= -slack

    def test_zeta_mostly_non_increasing(self, default_report):
        z = np.array(default_report.zeta_trace)
        increases = np.sum(np.diff(z) > 0)
        assert increases <= 0.1 * (len(z) - 1)

    def test_near_oracle(self, default_report, params, fit):
        oracle = oracle_search(params, fit, GridSpec())
        assert default_report.best.eta >= 0.98 * oracle.eta

    def test_determinism_bit_identical(self, default_report, params, fit, cfg):
        again = run(params, fit, cfg)
        assert again == default_report

    def test_no_state_carries_between_runs(self, fit, cfg):
        # The blocks' warm states live inside one run: a run in between, on
        # another system, must not change the result.
        p = SystemParams(W=1e5)
        first = run(p, fit, cfg)
        run(SystemParams(W=1e7, D=50.0), fit, PenaltyConfig(max_outer=20))
        assert run(p, fit, cfg) == first

    def test_each_block_is_built_once_per_run(self, fit, cfg, monkeypatch):
        # A block builds its program at its first solve of the run and
        # refreshes it for every later one; a solve that returns no warm
        # state makes the block's next solve build it anew (none does here).
        builds, solves = [], {}
        program = subproblems._program
        monkeypatch.setattr(subproblems, "_program",
                            lambda *args: builds.append(args) or program(*args))
        for name in ("solve_placement", "solve_bandwidth"):
            def recording(*args, solve=getattr(penalty, name), out=solves.setdefault(name, [])):
                out.append(solve(*args))
                return out[-1]

            monkeypatch.setattr(penalty, name, recording)
        report = run(SystemParams(W=1e5), fit, cfg)
        assert [len(out) for out in solves.values()] == [report.inner_iters] * 2
        rebuilds = sum(not sol.warm for out in solves.values() for sol in out[:-1])
        assert len(builds) == 2 + rebuilds
        assert rebuilds == 0

    def test_at_most_one_trial_point_per_barrier_evaluation(self, fit, cfg, barrier_evals):
        # Most Newton steps are accepted at full length, so a run evaluates
        # fewer trial points (eval_value) than Newton points (eval_full),
        # even though every trial outside the domain is evaluated and
        # halved; at this W it evaluates 0.48 per Newton point.
        run(SystemParams(W=1e5), fit, cfg)
        assert 0 < barrier_evals.value <= barrier_evals.full, (barrier_evals.value, barrier_evals.full)


def _standard_cases():
    """The 20 standard cases: the default system at W = 1e5, 1e6 and 1e7
    and at H = 0, and systems 0-15 of the rng 7 draw (the random-systems
    workload of the benchmark)."""
    cases = {f"W=1e{k}": (SystemParams(W=10.0 ** k), SigmoidFit()) for k in (5, 6, 7)}
    cases["H=0"] = (SystemParams(H=0.0), SigmoidFit())
    rng = np.random.default_rng(7)
    for i in range(16):
        cases[f"rng7-{i}"] = (random_params(rng), random_fit(rng))
    return cases


# Status, outer_iters, inner_iters, max_iter_blocks and best.eta of `run`
# on each standard case, as the solver gives them today. A change that
# leaves the algorithm alone leaves this table alone; one that changes the
# algorithm on purpose updates it and says so.
STANDARD_CASES = {
    "W=1e5": ("converged", 368, 513, 0, 611421.1686549812),
    "W=1e6": ("converged", 393, 1176, 0, 4969518.889605296),
    "W=1e7": ("converged", 411, 1877, 0, 23037582.729823496),
    "H=0": ("converged", 395, 2335, 0, 5094195.9001632575),
    "rng7-0": ("converged", 418, 570, 0, 114004383.69396345),
    "rng7-1": ("converged", 384, 613, 0, 3069360.503041062),
    "rng7-2": ("converged", 341, 540, 0, 35384.27558835749),
    "rng7-3": ("converged", 339, 549, 0, 28161.533812248483),
    "rng7-4": ("converged", 356, 511, 0, 169468.01566401165),
    "rng7-5": ("converged", 360, 1507, 0, 993627.1992749434),
    "rng7-6": ("converged", 368, 582, 0, 572976.6733822954),
    "rng7-7": ("converged", 361, 510, 0, 291785.68349329487),
    "rng7-8": ("converged", 376, 535, 0, 1402565.6062008454),
    "rng7-9": ("infeasible", 1, 0, 0, None),
    "rng7-10": ("converged", 375, 562, 0, 1289500.1999555167),
    "rng7-11": ("converged", 389, 605, 0, 5418574.884674848),
    "rng7-12": ("converged", 338, 570, 0, 22784.531046126685),
    "rng7-13": ("infeasible", 1, 0, 0, None),
    "rng7-14": ("infeasible", 1, 0, 0, None),
    "rng7-15": ("infeasible", 1, 0, 0, None),
}


class TestStandardCases:
    def test_cases_are_the_standard_twenty(self):
        assert list(_standard_cases()) == list(STANDARD_CASES)

    @pytest.mark.parametrize("name", list(STANDARD_CASES))
    def test_run_gives_the_pinned_answer(self, name, cfg):
        p, f = _standard_cases()[name]
        status, outer, inner, max_iter, eta = STANDARD_CASES[name]
        report = run(p, f, cfg)
        assert (report.status, report.outer_iters, report.inner_iters,
                report.max_iter_blocks) == (status, outer, inner, max_iter)
        if eta is None:
            assert report.best is None
        else:
            assert report.best.eta == pytest.approx(eta, rel=1e-9, abs=0.0)


class TestDefaultSweepRidge:
    def test_ridge_rows_keep_their_floor(self, params, fit, cfg):
        """Six rows of the default sweep, W = 1.624e5 ... 5.456e5, stop on
        the balance ridge, where block-coordinate ascent cannot follow the
        kink r_sem = r_bit: they end at 0.9921-0.9998 of the 1001^2 grid's
        eta. 0.992 is a floor that pins today's stall, not a goal: ROADMAP
        item 3's gate, >= 0.9999 of the exact optimum, is the fix."""
        grid = GridSpec(1001, 1001, cfg.alpha_floor)
        ws = sweep_bandwidths(1e5, 1e7, 20, True)[2:8]
        assert (ws[0], ws[-1]) == pytest.approx((1.624e5, 5.456e5), rel=1e-3)
        for w in ws:
            p = dataclasses.replace(params, W=w)
            report = run(p, fit, cfg)
            assert report.status == "converged", w
            assert report.best.eta >= 0.992 * oracle_search(p, fit, grid).eta, w


class TestRunEdges:
    def test_infeasible_system_detected(self, fit, cfg):
        weak = SystemParams(P_b=1e-9, W=1e8)
        report = run(weak, fit, cfg)
        assert report.status == "infeasible"
        assert report.best is None

    def test_feasibility_test_is_exact_at_the_threshold(self, params, fit, cfg):
        # Two systems whose best corner (d_br = 0, alpha_br = alpha_floor)
        # sits just above and just below the SNR threshold. The exact test
        # rejects only the second, before any phase; the corner-including
        # grid oracle agrees on both.
        corner_w = float(max_semantic_bandwidth(params, fit, 0.0)) / cfg.alpha_floor
        one_phase = dataclasses.replace(cfg, max_outer=1)
        for factor, feasible in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            p = dataclasses.replace(params, W=corner_w * factor)
            report = run(p, fit, one_phase)
            assert (report.outer_iters > 0) == feasible
            assert (oracle_search(p, fit, GridSpec(2, 2)) is not None) == feasible

    def test_zero_altitude_is_feasible(self, params, fit, cfg):
        # path_factor vanishes at d_br = 0 when H = 0: unbounded SNR, no
        # error, also from start points with the relay at either end
        p = dataclasses.replace(params, H=0.0)
        one_phase = dataclasses.replace(cfg, max_outer=1)
        for init in (None, DesignPoint(p.D, 0.0, 0.5, 0.5, 0.0, 0.0),
                     DesignPoint(0.0, p.D, 0.5, 0.5, 0.0, 0.0)):
            assert run(p, fit, one_phase, init=init).status == "iteration-cap", init
        # the full default schedule: one placement block there has an
        # incumbent with d_ru = 4e-50, whose relay->user tangent has slope
        # -inf; the block takes the tangent at the margin instead
        # (test_subproblems' test_degenerate_relay_user_tangent_is_taken_at_the_margin)
        report = run(p, fit, cfg)
        assert report.status == "converged"
        assert is_feasible(p, fit, report.best)
        assert effective_rate(p, fit, report.best) == report.best.eta
        assert report.best.eta >= 0.98 * oracle_search(p, fit, GridSpec()).eta
        assert report.max_iter_blocks == 0

    def test_max_iter_blocks_counts_each_unconverged_block(self, fit, cfg, monkeypatch):
        # One placement solve, the fifth, ends "max-iter" with its point and
        # no warm state: the run goes on from that point and counts it.
        calls = []

        def one_max_iter(*args):
            sol = solve_placement(*args)
            calls.append(None)
            return sol._replace(status="max-iter", warm=()) if len(calls) == 5 else sol

        monkeypatch.setattr(penalty, "solve_placement", one_max_iter)
        report = run(SystemParams(W=1e5), fit, cfg)
        assert len(calls) > 5 and report.status == "converged"
        assert report.max_iter_blocks == 1

    def test_both_blocks_infeasible_at_start(self, cfg):
        # System 9 of the seeded draw: its similarity floor admits a point,
        # but neither block finds one at the default start, so the run
        # stops in its first cycle and reports no point.
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, f = random_params(rng), random_fit(rng)
        report = run(p, f, cfg)
        assert report.status == "infeasible"
        assert report.best is None
        assert report.outer_iters == 1
        assert report.inner_iters == 0
        assert report.zeta == float("inf")
        assert report.zeta_trace == ()

    def test_optimal_feasible_init_is_fixed_point(self, params, fit, cfg):
        # with an immediately strong penalty the blocks pin to the incumbent
        start = oracle_search(params, fit, GridSpec())
        strong = dataclasses.replace(cfg, lambda0=1e-14)
        report = run(params, fit, strong, init=start)
        assert report.status == "converged"
        assert report.best.d_br == pytest.approx(start.d_br, abs=0.1)
        assert report.best.alpha_br == pytest.approx(start.alpha_br, abs=1e-3)
        for phase in report.objective_trace:
            diffs = np.diff(phase)
            assert diffs.size == 0 or diffs.min() >= -1.0

    def test_semantic_cap_binds_at_large_bandwidth(self, wide_report, fit):
        wide = SystemParams(W=1e7)
        assert wide_report.status == "converged"
        b = wide_report.best
        cap_hz = float(max_semantic_bandwidth(wide, fit, b.d_br))
        assert b.alpha_br * wide.W <= cap_hz * (1.0 + 1e-6)
        # the similarity constraint is active there
        eps = float(semantic_similarity(fit, b.gamma_br_db))
        assert eps == pytest.approx(fit.eps_bar, abs=1e-4)

    def test_infeasible_init_recovers(self, wide_report, fit):
        # default init violates the similarity floor at W = 1e7; the blocks
        # must walk back into the feasible region
        wide = SystemParams(W=1e7)
        gamma0 = float(snr_br_db(wide, 50.0, 0.5))
        assert float(semantic_similarity(fit, gamma0)) < fit.eps_bar
        assert wide_report.status == "converged"
        assert is_feasible(wide, fit, wide_report.best)
        assert effective_rate(wide, fit, wide_report.best) == wide_report.best.eta


class TestFinalize:
    def test_alpha_above_the_cap_drops_onto_the_floor(self, cfg):
        # From an alpha_br above the similarity cap, the final point lowers
        # alpha_br to the cap, which meets the SNR rule, and gives the
        # difference to alpha_ru.
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, f = random_params(rng), random_fit(rng)
            d = rng.uniform(0.0, p.D)
            # The cap in Hz does not depend on W, so this W puts the cap at
            # alpha_br = 1/4.
            p = dataclasses.replace(p, W=4.0 * float(max_semantic_bandwidth(p, f, d)))
            cap = float(max_semantic_bandwidth(p, f, d)) / p.W
            best = _finalize(p, f, (d, p.D - d), (0.3, 0.7), cfg)
            assert effective_rate(p, f, best) == best.eta
            assert (best.d_br, best.d_ru) == (d, p.D - d)
            assert best.alpha_br == cap
            assert best.alpha_br + best.alpha_ru == pytest.approx(1.0, abs=1e-15)


class TestRandomSystems:
    def test_status_and_point_are_honest(self, cfg):
        # A seeded draw of valid systems beyond the benchmark's: no
        # exception, every block solve optimal or infeasible (none ends
        # "max-iter", cold starts included), a point exactly when the status
        # is not infeasible, and every converged point meets the similarity
        # floor with its own rate.
        for seed, draws in ((11, 32), (3, 16)):
            rng = np.random.default_rng(seed)
            for i in range(draws):
                p, f = random_params(rng), random_fit(rng)
                report = run(p, f, cfg)
                assert report.max_iter_blocks == 0, (seed, i)
                assert (report.best is None) == (report.status == "infeasible"), (seed, i)
                if report.status == "converged":
                    assert is_feasible(p, f, report.best), (seed, i)
                    assert effective_rate(p, f, report.best) == report.best.eta, (seed, i)


def _unit_cases():
    """The default system at W = 1e6 and systems 0-3 of the rng 7 draw."""
    cases = [("default", SystemParams(), SigmoidFit())]
    rng = np.random.default_rng(7)
    for i in range(4):
        cases.append((f"rng7-{i}", random_params(rng), random_fit(rng)))
    return cases


class TestUnitInvariance:
    """Metamorphic tests (Chen et al., "Metamorphic testing: a review of
    challenges and opportunities", ACM Comput. Surv. 51(1), 2018): two
    changes of units that leave every SNR and rate as they are leave the
    status, phases and cycles of `run` as they are, and eta within 1e-9
    relative. The distance rescale holds only with nu divided by 100, as
    nu weighs the distance penalty in m^2 (ROADMAP item 8). The rate
    rescale, W times k with N0 divided by k, adds phases today, because
    lambda0 is absolute, so it waits for that item."""

    _base = {}

    @classmethod
    def _check(cls, name, p, f, cfg, scaled, scaled_cfg):
        if name not in cls._base:
            cls._base[name] = run(p, f, cfg)
        base, got = cls._base[name], run(scaled, f, scaled_cfg)
        assert (got.status, got.outer_iters, got.inner_iters) == (
            base.status, base.outer_iters, base.inner_iters), name
        assert got.best.eta == pytest.approx(base.best.eta, rel=1e-9, abs=0.0), name

    @pytest.mark.parametrize("name,p,f", _unit_cases(), ids=[c[0] for c in _unit_cases()])
    def test_powers_and_noise_times_ten(self, name, p, f, cfg):
        scaled = dataclasses.replace(p, P_b=10.0 * p.P_b, P_r=10.0 * p.P_r,
                                     N0_dbm_hz=p.N0_dbm_hz + 10.0)
        self._check(name, p, f, cfg, scaled, cfg)

    @pytest.mark.parametrize("name,p,f", _unit_cases(), ids=[c[0] for c in _unit_cases()])
    def test_distances_times_ten(self, name, p, f, cfg):
        # Distances times 10 scale the path factor by 10^beta, and rho0 by
        # 10^beta (+10 beta dB) takes it back.
        scaled = dataclasses.replace(p, D=10.0 * p.D, H=10.0 * p.H, rho0_db=p.rho0_db + 10.0 * p.beta)
        self._check(name, p, f, cfg, scaled, dataclasses.replace(cfg, nu=cfg.nu / 100.0))


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["max_inner", "max_outer"])
    def test_caps_must_be_integers(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PenaltyConfig(**{name: 2.5})
        assert getattr(PenaltyConfig(**{name: np.int64(3)}), name) == 3

    def test_rejects_bad_scaling(self):
        with pytest.raises(ValueError):
            PenaltyConfig(c=1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(c=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(lambda0=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(max_outer=0)
