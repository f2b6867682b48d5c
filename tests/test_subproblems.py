import math

import numpy as np
import pytest

from semrelay import barrier
from semrelay.bounds import LocalPoint
from semrelay.model import (
    DEFAULT_ALPHA_FLOOR,
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    max_semantic_bandwidth,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
)
from semrelay.subproblems import (
    ETA_CAP_FACTOR,
    TOL_SUB,
    rate_scale,
    solve_auxiliary,
    solve_bandwidth,
    solve_placement,
)
from oracles import (
    bandwidth_grid_oracle,
    placement_grid_oracle,
    projection_pair_oracle,
    random_fit,
    random_params,
)


def _incumbent_lp(p, fit, d, alpha):
    gamma = float(snr_br_db(p, d[0], alpha[0]))
    return LocalPoint(d[0], d[1], alpha[0], gamma, float(semantic_similarity(fit, gamma)))


def _random_cases(n=3, seed=3):
    """Seeded systems from the tests' random distribution, each with the
    relay at mid-span and a split that keeps the SNR there 3 dB above the
    threshold, so that both blocks are feasible at the incumbent."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p, fit = random_params(rng), random_fit(rng)
        a_br = min(0.5, 0.5 * float(max_semantic_bandwidth(p, fit, p.D / 2.0)) / p.W)
        yield p, fit, (p.D / 2.0, p.D / 2.0), (a_br, 1.0 - a_br)


class TestSolvePlacement:
    def test_matches_grid_oracle(self, params, fit):
        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]):
            lp = _incumbent_lp(p, f, d, alpha)
            sol = solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            assert sol.status == "optimal", i
            cap = ETA_CAP_FACTOR * rate_scale(p, f)
            ref = placement_grid_oracle(p, f, lp, alpha, d, 1000.0, 1e-4, cap)
            # the grid maximizes over feasible points only, so it lower-bounds
            # the solver; closeness within 0.1 percent both ways
            assert sol.objective >= ref - 1e-6 * abs(ref), i
            assert abs(sol.objective - ref) <= 1e-3 * abs(ref), i

    def test_strong_penalty_pins_to_aux(self, params, fit):
        alpha = (0.3, 0.7)
        aux = (42.0, 58.0)
        lp = _incumbent_lp(params, fit, aux, alpha)
        sol = solve_placement(params, fit, lp, alpha[1], aux, 1e-12, 1e-4)
        assert sol.point["d_br"] == pytest.approx(aux[0], abs=1e-3)
        assert sol.point["d_ru"] == pytest.approx(aux[1], abs=1e-3)

    def test_surrogate_point_feasible_for_exact_constraints(self, params, fit):
        alpha = (0.4, 0.6)
        lp = _incumbent_lp(params, fit, (60.0, 40.0), alpha)
        sol = solve_placement(params, fit, lp, alpha[1], (60.0, 40.0), 10.0, 1e-4)
        d_br, d_ru = sol.point["d_br"], sol.point["d_ru"]
        gamma_var, eta = sol.point["gamma_br_db"], sol.point["eta"]
        # lower-bound surrogates guarantee the exact rates dominate eta
        gamma_exact = float(snr_br_db(params, d_br, alpha[0]))
        assert gamma_exact >= gamma_var - 1e-9
        eps = semantic_similarity(fit, gamma_exact)
        assert eta <= float(semantic_bit_rate(params, fit, alpha[0], eps)) * (1 + 1e-9)
        assert eta <= float(bit_rate_ru(params, d_ru, alpha[1])) * (1 + 1e-9)

    def test_infeasible_split_reports_infeasible(self, params, fit):
        # alpha_br so large the SNR threshold fails even at d_br = 0
        p = SystemParams(W=1e9)
        alpha = (0.9, 0.1)
        gamma = float(snr_br_db(p, 50.0, alpha[0]))
        lp = LocalPoint(50.0, 50.0, alpha[0], gamma, float(semantic_similarity(fit, gamma)))
        sol = solve_placement(p, fit, lp, alpha[1], (50.0, 50.0), 1000.0, 1e-4)
        assert sol.status == "infeasible"


class TestSolveBandwidth:
    def test_matches_grid_oracle(self, params, fit):
        lam = 1000.0
        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.5, 0.5)), *_random_cases()]):
            lp = _incumbent_lp(p, f, d, alpha)
            sol = solve_bandwidth(p, f, lp, alpha, lam)
            assert sol.status == "optimal", i
            cap = ETA_CAP_FACTOR * rate_scale(p, f)
            ref = bandwidth_grid_oracle(p, f, lp, d, alpha, lam, 1e-6, cap)
            assert sol.objective >= ref - 1e-6 * abs(ref), i
            assert abs(sol.objective - ref) <= 1e-3 * abs(ref), i

    def test_strong_penalty_pins_to_aux(self, params, fit):
        d = (50.0, 50.0)
        aux = (0.35, 0.65)
        lp = _incumbent_lp(params, fit, d, aux)
        sol = solve_bandwidth(params, fit, lp, aux, 1e-12)
        assert sol.point["alpha_br"] == pytest.approx(aux[0], abs=1e-5)
        assert sol.point["alpha_ru"] == pytest.approx(aux[1], abs=1e-5)

    def test_relaxed_similarity_chain_holds(self, params, fit):
        d = (50.0, 50.0)
        lp = _incumbent_lp(params, fit, d, (0.5, 0.5))
        sol = solve_bandwidth(params, fit, lp, (0.5, 0.5), 1000.0)
        s_var = sol.point["S"]
        gamma_var = sol.point["gamma_br_db"]
        # surrogate keeps S below the exact similarity at the SNR variable
        assert s_var <= float(semantic_similarity(fit, gamma_var)) + 1e-9
        # and the SNR variable stays below the exact ceiling
        assert gamma_var <= float(snr_br_db(params, d[0], sol.point["alpha_br"])) + 1e-9

    def test_infeasible_placement_reports_infeasible(self, fit):
        # even the floor allocation misses the threshold at this distance
        p = SystemParams(P_b=1e-9, W=1e8)
        d = (95.0, 5.0)
        gamma = float(snr_br_db(p, d[0], 0.5))
        lp = LocalPoint(d[0], d[1], 0.5, gamma, float(semantic_similarity(fit, gamma)))
        sol = solve_bandwidth(p, fit, lp, (0.5, 0.5), 1000.0)
        assert sol.status == "infeasible"


class TestBlockDerivatives:
    """The gradient and the Newton direction that each block's eval_full
    computes by hand, against central differences of its eval_value and of
    that gradient, at the barrier's start point and halfway to its solution;
    and both callbacks outside the barrier domain."""

    @staticmethod
    def _check(eval_full, eval_value, z, t):
        _, grad, dx = eval_full(z, t)
        assert dx is not None
        grad, dx = np.asarray(grad), np.asarray(dx)
        n = len(z)
        h = 1e-6 * (np.abs(z) + 1e-3)
        hess_fd = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h[i]
            g_fd = (eval_value(z + e, t) - eval_value(z - e, t)) / (2.0 * h[i])
            assert abs(g_fd - grad[i]) <= 1e-5 * (abs(grad[i]) + 1e-6 * np.linalg.norm(grad)), i
            hess_fd[:, i] = (np.asarray(eval_full(z + e, t)[1]) - np.asarray(eval_full(z - e, t)[1])) / (2.0 * h[i])
        # dx solves (-H) dx = grad: each row of H_fd dx + grad vanishes on the
        # scale of the products it sums.
        residual = hess_fd @ dx + grad
        assert np.all(np.abs(residual) <= 1e-5 * (np.abs(hess_fd) @ np.abs(dx))), residual

    @staticmethod
    def _record(monkeypatch):
        """Patch barrier.maximize to log (eval_full, eval_value, x0, x) of
        every block solve into the returned list."""
        calls = []
        maximize = barrier.maximize

        def recording(eval_full, eval_value, x0, n_constraints, gap):
            x, ok = maximize(eval_full, eval_value, x0, n_constraints, gap)
            calls.append((eval_full, eval_value, np.asarray(x0, dtype=float), np.asarray(x)))
            return x, ok

        monkeypatch.setattr(barrier, "maximize", recording)
        return calls

    def test_eval_full_matches_finite_differences(self, params, fit, monkeypatch):
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1000.0)
        assert [len(x0) for _, _, x0, _ in calls] == [4, 5] * 4
        for eval_full, eval_value, x0, x in calls:
            for z in (x0, 0.5 * (x0 + x)):
                for t in (10.0, 1e4):
                    self._check(eval_full, eval_value, z, t)

    def test_outside_domain_is_not_finite(self, params, fit, monkeypatch):
        # The barrier's contract: outside the domain eval_value is -inf and
        # eval_full gives a phi that is not finite, with no grad or dx. The
        # exact relay->user rate is undefined at alpha_ru <= 0, so that
        # point must not reach log1p.
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        (pl_full, pl_value, pl_x0, _), (bw_full, bw_value, bw_x0, _) = calls
        (_, *pl_rest), (a_br, _, *bw_rest) = pl_x0.tolist(), bw_x0.tolist()
        outside = [(pl_full, pl_value, [-1.0, *pl_rest])]
        for a_ru in (0.0, -0.1, DEFAULT_ALPHA_FLOOR):
            outside.append((bw_full, bw_value, [a_br, a_ru, *bw_rest]))
        for eval_full, eval_value, z in outside:
            for t in (10.0, 1e4):
                assert eval_value(z, t) == -math.inf, z
                assert eval_full(z, t) == (-math.inf, None, None), z


class TestSolveAuxiliary:
    def test_symmetric_shortfall_split(self):
        (d_hat, a_hat) = solve_auxiliary((50.0, 50.0), (0.4, 0.4), 100.0)
        assert a_hat == (0.5, 0.5)
        assert d_hat == (50.0, 50.0)

    def test_uneven_pair(self):
        (_, a_hat) = solve_auxiliary((0.0, 0.0), (0.6, 0.5), 0.0)
        assert a_hat[0] == pytest.approx(0.55, abs=1e-15)
        assert a_hat[1] == pytest.approx(0.45, abs=1e-15)

    def test_feasible_input_is_fixed_point(self):
        (d_hat, a_hat) = solve_auxiliary((30.0, 70.0), (0.2, 0.8), 100.0)
        assert d_hat == (30.0, 70.0)
        assert a_hat == (0.2, 0.8)

    def test_sums_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            d = tuple(rng.uniform(-50.0, 200.0, size=2))
            a = tuple(rng.uniform(-1.0, 3.0, size=2))
            big_d = rng.uniform(10.0, 500.0)
            (d_hat, a_hat) = solve_auxiliary(d, a, big_d)
            assert d_hat[0] + d_hat[1] == pytest.approx(big_d, abs=1e-9 * max(1.0, big_d))
            assert a_hat[0] + a_hat[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_quadratic_minimization_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            d = tuple(rng.uniform(-100.0, 300.0, size=2))
            a = tuple(rng.uniform(-2.0, 4.0, size=2))
            big_d = rng.uniform(1.0, 400.0)
            (d_hat, a_hat) = solve_auxiliary(d, a, big_d)
            want_d = projection_pair_oracle(d[0], d[1], big_d)
            want_a = projection_pair_oracle(a[0], a[1], 1.0)
            scale_d = max(1.0, abs(d[0]), abs(d[1]), big_d)
            assert abs(d_hat[0] - want_d[0]) <= 1e-12 * scale_d
            assert abs(d_hat[1] - want_d[1]) <= 1e-12 * scale_d
            assert abs(a_hat[0] - want_a[0]) <= 1e-12 * 10.0
            assert abs(a_hat[1] - want_a[1]) <= 1e-12 * 10.0


class TestAscentProperty:
    def test_block_solves_do_not_decrease_penalized_objective(self, params, fit):
        # run a few manual cycles at a mid-range penalty and check the
        # full penalized objective never drops by more than solver slack
        lam, nu = 1e-3, 1e-4
        d = (50.0, 50.0)
        alpha = (0.5, 0.5)
        aux_d, aux_a = d, alpha
        slack = 10.0 * TOL_SUB * rate_scale(params, fit)

        def full_objective(d, alpha, aux_d, aux_a):
            gamma = float(snr_br_db(params, d[0], alpha[0]))
            eps = float(semantic_similarity(fit, gamma))
            eta = min(
                float(semantic_bit_rate(params, fit, alpha[0], eps)),
                float(bit_rate_ru(params, d[1], alpha[1])),
            )
            pen = (
                (alpha[0] - aux_a[0]) ** 2 + (alpha[1] - aux_a[1]) ** 2
                + nu * (d[0] - aux_d[0]) ** 2 + nu * (d[1] - aux_d[1]) ** 2
            )
            return eta - pen / (2.0 * lam)

        prev = full_objective(d, alpha, aux_d, aux_a)
        for _ in range(5):
            lp = _incumbent_lp(params, fit, d, alpha)
            sol = solve_placement(params, fit, lp, alpha[1], aux_d, lam, nu)
            d = (sol.point["d_br"], sol.point["d_ru"])
            now = full_objective(d, alpha, aux_d, aux_a)
            assert now >= prev - slack
            prev = now

            lp = _incumbent_lp(params, fit, d, alpha)
            sol = solve_bandwidth(params, fit, lp, aux_a, lam)
            alpha = (sol.point["alpha_br"], sol.point["alpha_ru"])
            now = full_objective(d, alpha, aux_d, aux_a)
            assert now >= prev - slack
            prev = now

            aux_d, aux_a = solve_auxiliary(d, alpha, params.D)
            now = full_objective(d, alpha, aux_d, aux_a)
            assert now >= prev - slack
            prev = now
