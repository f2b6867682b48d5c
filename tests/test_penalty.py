import dataclasses

import numpy as np
import pytest

from semrelay.baselines import GridSpec, oracle_search
from semrelay.model import (
    SigmoidFit,
    SystemParams,
    is_feasible,
    max_semantic_bandwidth,
    semantic_similarity,
    snr_br_db,
)
from semrelay.penalty import PenaltyConfig, run, violation
from semrelay.subproblems import TOL_SUB, rate_scale


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

    def test_best_point_feasible(self, default_report, params, fit):
        assert is_feasible(params, fit, default_report.best)
        assert default_report.best.eta > 0

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
        # path_factor vanishes at d_br = 0 when H = 0: unbounded SNR, no error
        report = run(dataclasses.replace(params, H=0.0), fit,
                     dataclasses.replace(cfg, max_outer=1))
        assert report.status == "iteration-cap"

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

    def test_semantic_cap_binds_at_large_bandwidth(self, fit, cfg):
        wide = SystemParams(W=1e7)
        report = run(wide, fit, cfg)
        assert report.status == "converged"
        b = report.best
        cap_hz = float(max_semantic_bandwidth(wide, fit, b.d_br))
        assert b.alpha_br * wide.W <= cap_hz * (1.0 + 1e-6)
        # the similarity constraint is active there
        eps = float(semantic_similarity(fit, b.gamma_br_db))
        assert eps == pytest.approx(fit.eps_bar, abs=1e-4)

    def test_infeasible_init_recovers(self, fit, cfg):
        # default init violates the similarity floor at W = 1e7; the blocks
        # must walk back into the feasible region
        wide = SystemParams(W=1e7)
        gamma0 = float(snr_br_db(wide, 50.0, 0.5))
        assert float(semantic_similarity(fit, gamma0)) < fit.eps_bar
        report = run(wide, fit, cfg)
        assert report.status == "converged"
        assert is_feasible(wide, fit, report.best)


class TestConfigValidation:
    def test_rejects_bad_scaling(self):
        with pytest.raises(ValueError):
            PenaltyConfig(c=1.0)
        with pytest.raises(ValueError):
            PenaltyConfig(c=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(lambda0=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(max_outer=0)
