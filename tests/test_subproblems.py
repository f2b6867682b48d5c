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
    min_snr_threshold_db,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
)
from semrelay.subproblems import (
    ETA_CAP_FACTOR,
    TOL_SUB,
    _newton_dx,
    _solve,
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
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]):
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
                [(params, fit, (50.0, 50.0), (0.5, 0.5)), *_random_cases(n=8)]):
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
        # the block's SNR is its ceiling tangent, which stays below the exact
        # SNR, so S stays below the exact similarity, and the point meets
        # the similarity floor
        gamma = float(snr_br_db(params, d[0], sol.point["alpha_br"]))
        assert sol.point["S"] <= float(semantic_similarity(fit, gamma)) + 1e-9
        assert gamma >= min_snr_threshold_db(fit)

    def test_infeasible_placement_reports_infeasible(self, fit):
        # even the floor allocation misses the threshold at this distance
        p = SystemParams(P_b=1e-9, W=1e8)
        d = (95.0, 5.0)
        gamma = float(snr_br_db(p, d[0], 0.5))
        lp = LocalPoint(d[0], d[1], 0.5, gamma, float(semantic_similarity(fit, gamma)))
        sol = solve_bandwidth(p, fit, lp, (0.5, 0.5), 1000.0)
        assert sol.status == "infeasible"


class TestNewtonDx:
    """The Newton solve that both blocks share, on the sparsity of their
    -H: cross terms (x0, x2), (x0, x3), (x1, x3) and (x2, x3), where the
    placement block has no (x0, x3) term."""

    _ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 3), (2, 3))

    @classmethod
    def _solve(cls, a, g):
        return _newton_dx(tuple(map(float, g)), *(float(a[i, j]) for i, j in cls._ENTRIES))

    def test_matches_dense_solve(self):
        # Random positive definite matrices with that sparsity, each scaled
        # by a random diagonal over six decades as the barrier's are; the
        # error is measured in the scaled coordinates.
        rng = np.random.default_rng(11)
        for k in range(200):
            a = np.zeros((4, 4))
            for i, j in self._ENTRIES[4:]:
                a[i, j] = a[j, i] = rng.normal()
            if k % 2:
                a[0, 3] = a[3, 0] = 0.0
            a += (rng.uniform(1e-3, 1.0) - np.linalg.eigvalsh(a)[0]) * np.eye(4)
            scale = 10.0 ** rng.uniform(-3.0, 3.0, 4)
            a *= np.outer(scale, scale)
            g = rng.normal(size=4) * scale
            dx, ref = np.asarray(self._solve(a, g)), np.linalg.solve(a, g)
            assert np.linalg.norm((dx - ref) * scale) <= 1e-10 * np.linalg.norm(ref * scale), k

    @pytest.mark.parametrize("pivot", range(4))
    @pytest.mark.parametrize("offset", [0.0, -0.5])
    def test_pivot_not_positive_gives_none(self, pivot, offset):
        # Unit diagonal with the one cross term that makes the pivot exactly
        # zero; the offset takes it below zero.
        a = np.eye(4)
        cross = {0: None, 1: None, 2: (0, 2), 3: (1, 3)}[pivot]
        if cross is not None:
            a[cross] = a[cross[::-1]] = 1.0
        a[pivot, pivot] = float(cross is not None) + offset
        assert self._solve(a, np.ones(4)) is None
        a[pivot, pivot] += 1.0  # the same matrix with that pivot positive
        assert self._solve(a, np.ones(4)) is not None


class TestBlockDerivatives:
    """The gradient and the Newton direction that each block's eval_full
    computes by hand, against central differences of its eval_value and of
    that gradient, at the barrier's start point and halfway to its solution
    and at dual scales 1, 10 and 100; and both callbacks outside the barrier
    domain."""

    @staticmethod
    def _check(eval_full, eval_value, z, t):
        phi, grad, _ = eval_full(z, t)
        grad = np.asarray(grad)
        n = len(z)
        h = 1e-6 * (np.abs(z) + 1e-3)

        def hess_fd(tt):
            cols = []
            for i in range(n):
                e = np.zeros(n)
                e[i] = h[i]
                cols.append((np.asarray(eval_full(z + e, tt)[1])
                             - np.asarray(eval_full(z - e, tt)[1])) / (2.0 * h[i]))
            return np.column_stack(cols)

        for i in range(n):
            e = np.zeros(n)
            e[i] = h[i]
            g_fd = (eval_value(z + e, t) - eval_value(z - e, t)) / (2.0 * h[i])
            assert abs(g_fd - grad[i]) <= 1e-5 * (abs(grad[i]) + 1e-6 * np.linalg.norm(grad)), i
        # The Hessian of phi is t*H_f + H_b, so H_b is its value at t = 0,
        # and the scaled step's matrix t*H_f + k*H_b is H(t) + (k - 1) H(0).
        hess_t, hess_b = hess_fd(t), hess_fd(0.0)
        for k in (1.0, 10.0, 100.0):
            phi_k, grad_k, dx = eval_full(z, barrier.Scaled(t, k))
            assert (phi_k, grad_k) == (phi, tuple(grad)), k
            assert dx is not None, k
            dx = np.asarray(dx)
            hess = hess_t + (k - 1.0) * hess_b
            # dx solves -(t*H_f + k*H_b) dx = grad: each row of hess dx + grad
            # vanishes on the scale of the products it sums.
            residual = hess @ dx + grad
            assert np.all(np.abs(residual) <= 1e-5 * (np.abs(hess) @ np.abs(dx))), (k, residual)

    @staticmethod
    def _record(monkeypatch):
        """Patch barrier.maximize to log (eval_full, eval_value, x0, x) of
        every block solve into the returned list."""
        calls = []
        maximize = barrier.maximize

        def recording(eval_full, eval_value, x0, *args):
            out = maximize(eval_full, eval_value, x0, *args)
            calls.append((eval_full, eval_value, np.asarray(x0, dtype=float), np.asarray(out[0])))
            return out

        monkeypatch.setattr(barrier, "maximize", recording)
        return calls

    def test_eval_full_matches_finite_differences(self, params, fit, monkeypatch):
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1000.0)
        assert [len(x0) for _, _, x0, _ in calls] == [4, 4] * 4
        for eval_full, eval_value, x0, x in calls:
            for z in (x0, 0.5 * (x0 + x)):
                for t in (10.0, 1e4):
                    self._check(eval_full, eval_value, z, t)

    def test_strong_penalty_matches_finite_differences(self, params, fit, monkeypatch):
        # At lam = 1000 the objective's part of the Hessian is negligible
        # against the barrier's; at lam = 1e-3 it is not, and the dual scale
        # weighs the two against each other.
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1e-3, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1e-3)
        for eval_full, eval_value, x0, x in calls:
            for z in (x0, 0.5 * (x0 + x)):
                for t in (10.0, 1e4):
                    self._check(eval_full, eval_value, z, t)

    def test_outside_domain_is_not_finite(self, params, fit, monkeypatch):
        # The barrier's contract: outside the domain eval_value is -inf and
        # eval_full gives a phi that is not finite, with no grad or dx. The
        # exact relay->user rate is undefined at alpha_ru <= 0, so that
        # point must not reach log1p, and far below the SNR threshold the
        # logistic term must not overflow: at gamma = -1e4 in the placement
        # block, and at alpha_br = 1e4, where the SNR ceiling is that low, in
        # the bandwidth block. The line search evaluates every trial of a
        # full Newton step, and those reach d_ru and alpha_ru near 1e5: at
        # d_ru = 1e3 D, and at alpha_ru = 1e5 with the rate above its cap
        # (the rate F1 rises with alpha_ru, so alpha_ru alone stays inside).
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        (pl_full, pl_value, pl_x0, _), (bw_full, bw_value, bw_x0, _) = calls
        (_, *pl_rest), (a_br, _, *bw_rest) = pl_x0.tolist(), bw_x0.tolist()
        outside = [(pl_full, pl_value, [-1.0, *pl_rest])]
        for a_ru in (0.0, -0.1, DEFAULT_ALPHA_FLOOR):
            outside.append((bw_full, bw_value, [a_br, a_ru, *bw_rest]))
        pl_z, bw_z = pl_x0.tolist(), bw_x0.tolist()
        pl_z[2], bw_z[0] = -1e4, 1e4  # gamma, alpha_br
        outside += [(pl_full, pl_value, pl_z), (bw_full, bw_value, bw_z)]
        pl_z, bw_z = pl_x0.tolist(), bw_x0.tolist()
        pl_z[1] = 1e3 * params.D  # d_ru
        bw_z[1], bw_z[3] = 1e5, 2.0 * ETA_CAP_FACTOR  # alpha_ru, the rate
        outside += [(pl_full, pl_value, pl_z), (bw_full, bw_value, bw_z)]
        for eval_full, eval_value, z in outside:
            for t in (10.0, 1e4):
                assert eval_value(z, t) == -math.inf, z
                assert eval_full(z, t) == (-math.inf, None, None), z

    def test_rate_far_below_the_cap_is_inside_domain(self, params, fit, monkeypatch):
        # The rate variable has no lower bound: it is maximized and F1 and
        # F2 bound it from above. At each block's start with the rate at
        # -10 times the cap, the barrier is finite and its Newton step
        # raises the rate.
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        assert len(calls) == 2
        for eval_full, eval_value, x0, _ in calls:
            z = [*x0[:-1].tolist(), -10.0 * ETA_CAP_FACTOR]
            for t in (10.0, 1e4):
                assert math.isfinite(eval_value(z, t)), z
                phi, _, dx = eval_full(z, t)
                assert math.isfinite(phi) and dx[3] > 0.0, (z, dx)

    def test_nan_slack_is_outside_domain(self, params, fit, monkeypatch):
        # A NaN slack, first or after others, puts the point outside the
        # domain; a later slack <= 0 must then not reach math.log.
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        (pl_full, pl_value, pl_x0, _), (bw_full, bw_value, bw_x0, _) = calls
        nan, inf = math.nan, math.inf
        cases = (
            # placement (d_br, d_ru, gamma, y)
            (pl_full, pl_value, pl_x0, {3: nan}),  # every slack of y is NaN, the first too
            (pl_full, pl_value, pl_x0, {1: nan, 2: -inf}),  # NaN first, then gamma's slack -inf
            (pl_full, pl_value, pl_x0, {0: nan}),  # NaN in the third and fourth slacks only
            # bandwidth (alpha_br, alpha_ru, S, y)
            (bw_full, bw_value, bw_x0, {3: nan}),  # every slack of y is NaN, the first too
            (bw_full, bw_value, bw_x0, {0: inf, 3: nan}),  # NaN first, then -inf
            (bw_full, bw_value, bw_x0, {2: nan}),  # NaN in the second and third slacks only
        )
        for eval_full, eval_value, x0, change in cases:
            z = x0.tolist()
            for i, v in change.items():
                z[i] = v
            for t in (10.0, 1e4):
                assert eval_value(z, t) == -math.inf, z
                assert eval_full(z, t) == (-math.inf, None, None), z


class TestBlockProgram:
    """`_solve`, the program that both barrier blocks instantiate, on a
    synthetic instance: F1(x1) = x1, F2(x0, x2) = x2 + x0/2 and
    G(x0) = 1 - x0, each minus a concave quadratic when curved, with the
    bounds 0 < x0 < 0.3 and x1 > 0, and none on x2."""

    Z0 = (0.1, 0.3, 0.2)
    HAT = (0.9, 0.5)

    @classmethod
    def _run(cls, curved, R0=1.0, path=()):
        c = 1.0 if curved else 0.0

        def slacks(x0, x1, x2, y):
            d = x0 - x2
            return (x1 - c * x1 * x1 - y, x2 + 0.5 * x0 - c * d * d - y, 1.0 - x0 - c * x0 * x0 - x2,
                    0.3 - x0, x0, x1)

        def partials(x0, x1, x2):
            d = 2.0 * c * (x0 - x2)
            return (1.0 - 2.0 * c * x1, -2.0 * c, 0.5 - d, 1.0 + d, -2.0 * c, 2.0 * c, -2.0 * c,
                    -1.0 - 2.0 * c * x0, -2.0 * c)

        return _solve(slacks, partials, (0.0, 0.3, 0.0, -math.inf), 1.0, cls.HAT, cls.Z0,
                      ("x0", "x1", "x2"), R0, path)

    def test_affine_instance_reaches_its_vertex(self):
        # y = min(x1, x2 + x0/2) with x2 = 1 - x0 at the optimum; along that
        # kink the objective rises in x0 up to 0.72, so x0 stops at its
        # bound 0.3, and then x1 = y = 0.85: the KKT multipliers of the four
        # active slacks are 0.7, 0.3, 0.3 and 1.05, all positive.
        sol = self._run(curved=False, R0=2.0)
        assert sol.status == "optimal"
        want = {"x0": 0.3, "x1": 0.85, "x2": 0.7, "eta": 2.0 * 0.85}
        assert sol.point.keys() == want.keys()
        for name, v in want.items():
            assert sol.point[name] == pytest.approx(v, abs=1e-7), name
        objective = 0.85 - (0.3 - 0.9) ** 2 - (0.85 - 0.5) ** 2
        assert sol.objective == pytest.approx(2.0 * objective, abs=1e-8)
        assert self._run(curved=False, R0=2.0, path=sol.path).point == pytest.approx(sol.point, abs=1e-9)

    @pytest.mark.parametrize("curved", [False, True])
    def test_eval_full_matches_finite_differences(self, curved, monkeypatch):
        calls = TestBlockDerivatives._record(monkeypatch)
        self._run(curved)
        ((eval_full, eval_value, x0, x),) = calls
        for z in (x0, 0.5 * (x0 + x), 0.99 * x + 0.01 * x0):
            for t in (10.0, 1e4):
                TestBlockDerivatives._check(eval_full, eval_value, z, t)


class TestKeptSlacks:
    """The slacks that a block keeps from one evaluation of a point to the
    next give the same results as a fresh evaluation."""

    @staticmethod
    def _solve_blocks(params, fit):
        """Both blocks on the default system and `_random_cases()`, as in
        TestBlockDerivatives, each solved cold and then warm from its own
        path at half the penalty coefficient."""
        sols = []
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            place = solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            band = solve_bandwidth(p, f, lp, alpha, 1000.0)
            sols += [
                place,
                band,
                solve_placement(p, f, lp, alpha[1], d, 500.0, 1e-4, place.path),
                solve_bandwidth(p, f, lp, alpha, 500.0, DEFAULT_ALPHA_FLOOR, band.path),
            ]
        return sols

    def test_kept_slacks_match_a_fresh_evaluation(self, params, fit, monkeypatch):
        calls = TestBlockDerivatives._record(monkeypatch)
        self._solve_blocks(params, fit)
        for eval_full, eval_value, x0, x in calls:
            points = (x0, 0.5 * (x0 + x), x)
            far = (x0 + x).tolist()  # a point no other evaluation here shares

            def fresh(z, t):
                eval_value(far, t)
                return eval_full(z.tolist(), t)

            for i, z in enumerate(points):
                other = points[i - 1]
                for t in (10.0, 1e4):
                    want = fresh(z, t)
                    eval_value(z.tolist(), t)
                    assert eval_full(z.tolist(), t) == want
                    eval_value(z.tolist(), 3.0 * t)
                    assert eval_full(z.tolist(), t) == want
                    assert eval_full(z.tolist(), 3.0 * t)[0] != want[0]
                    eval_value(z.tolist(), t)
                    assert eval_full(z.copy(), t) == want
                    kept = z.tolist()
                    eval_value(kept, t)
                    kept[:] = other.tolist()
                    assert eval_full(kept, t) == fresh(other, t)


class TestWarmStart:
    """A block solve that starts from the centers of an earlier solve (its
    warm path) lands on the cold solution."""

    @staticmethod
    def _blocks(p, f, d, alpha):
        """The placement and bandwidth solves at one incumbent, each as a
        function of the warm path."""
        lp = _incumbent_lp(p, f, d, alpha)
        return (
            lambda path=(): solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4, path),
            lambda path=(): solve_bandwidth(p, f, lp, alpha, 1000.0, DEFAULT_ALPHA_FLOOR, path),
        )

    @staticmethod
    def _count_eval_full(monkeypatch):
        """Patch barrier.maximize to count eval_full calls into the returned
        one-element list."""
        calls = [0]
        maximize = barrier.maximize

        def counting(eval_full, *args):
            def counted(x, t):
                calls[0] += 1
                return eval_full(x, t)

            return maximize(counted, *args)

        monkeypatch.setattr(barrier, "maximize", counting)
        return calls

    def test_resolve_from_own_path_matches_cold_with_fewer_steps(self, params, fit, monkeypatch):
        calls = self._count_eval_full(monkeypatch)
        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]):
            for solve in self._blocks(p, f, d, alpha):
                calls[0] = 0
                cold = solve()
                cold_calls = calls[0]
                calls[0] = 0
                warm = solve(cold.path)
                assert cold.status == warm.status == "optimal", i
                assert cold.path, i
                assert calls[0] < cold_calls, i
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9), i
                for name, v in cold.point.items():
                    assert warm.point[name] == pytest.approx(v, rel=1e-9), (i, name)

    def test_cold_solve_grows_t_by_one_factor(self, params, fit):
        t_final = 7 / TOL_SUB  # seven slacks
        want, t = [], barrier._T0
        while t < t_final:
            want.append(t)
            t *= barrier._GROWTH
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            for solve in self._blocks(p, f, d, alpha):
                sol = solve()
                assert sol.status == "optimal"
                assert [t for t, _ in sol.path] == want

    def test_empty_or_outside_path_gives_cold_solution(self, params, fit):
        place, band = self._blocks(params, fit, (50.0, 50.0), (0.3, 0.7))
        for solve, coord, outside in ((place, 0, -1.0), (band, 1, -0.1)):
            cold = solve()
            assert solve(()) == cold
            # d_br < 0 and alpha_ru < 0 lie outside each block's domain.
            path = tuple((t, (*x[:coord], outside, *x[coord + 1:])) for t, x in cold.path)
            assert solve(path) == cold

    def test_path_is_not_mutated(self, params, fit):
        for solve in self._blocks(params, fit, (50.0, 50.0), (0.3, 0.7)):
            path = [[t, list(x)] for t, x in solve().path]
            before = [[t, list(x)] for t, x in path]
            warm = solve(path)
            assert path == before
            assert all(x is not y for _, x in warm.path for _, y in path)


def _log_barrier_1d():
    """(eval_full, eval_value) of the one-variable program: maximize
    t*x + log(1 - x), whose center is x = 1 - 1/t."""
    def eval_value(x, t):
        return t * x[0] + math.log(1.0 - x[0]) if x[0] < 1.0 else -math.inf

    def eval_full(x, t):
        s = 1.0 - x[0]
        g = t - 1.0 / s
        dx = g * s * s / getattr(t, "k", 1.0)
        return eval_value(x, t), (g,), (dx,)

    return eval_full, eval_value


class TestScaledStep:
    """Centerings that carry the duals of the previous center stop where
    the primal Newton decrement meets the barrier's tolerance."""

    def test_centers_meet_the_primal_decrement(self, params, fit, monkeypatch):
        decrements, scales = [], []
        newton = barrier._newton

        def checked(eval_full, eval_value, x, t, k):
            out = newton(eval_full, eval_value, x, t, k)
            if out[1]:
                _, grad, dx = eval_full(out[0], float(t))
                decrements.append(sum(g * d for g, d in zip(grad, dx)))
                scales.append(k)
            return out

        monkeypatch.setattr(barrier, "_newton", checked)
        TestKeptSlacks._solve_blocks(params, fit)
        assert max(decrements) <= barrier._DECREMENT_TOL, max(decrements)
        # Most centerings start with carried duals, at the growth of t.
        assert sum(k > 1.0 for k in scales) >= 0.5 * len(scales), scales

    def test_stop_rule_bounds_the_primal_decrement(self):
        # Maximize t*x + log(1 - x): the objective is linear, so the scaled
        # step is the primal one over k and its decrement is the primal one
        # over k. From a point whose primal decrement is 10 times the
        # tolerance, a centering at k = 100 must still step.
        eval_full, eval_value = _log_barrier_1d()
        t = 1.0
        x0 = [-math.sqrt(10.0 * barrier._DECREMENT_TOL)]  # (t*(1 - x) - 1)^2 = 10 tol
        x, ok = barrier._newton(eval_full, eval_value, x0, t, 100.0)
        _, (g,), (dx,) = eval_full(x, t)
        assert ok and x != x0
        assert g * dx <= barrier._DECREMENT_TOL


class TestLineSearch:
    """The backtracking line search halves the Newton step from s = 1
    until the Armijo test passes; a trial outside the domain fails it."""

    def test_trials_outside_the_domain_are_halved(self):
        # At x = 0 and t = 10 the gradient is 9 and -H is 1, so the full
        # Newton step lands at x = 9, far outside x < 1.
        eval_full, eval_value = _log_barrier_1d()
        trials, points = [], []

        def value(x, t):
            out = eval_value(x, t)
            trials.append((x[0], out))
            return out

        def full(x, t):
            points.append(x[0])
            return eval_full(x, t)

        x, ok = barrier._newton(full, value, [0.0], 10.0, 1.0)
        assert trials[:4] == [(9.0, -math.inf), (4.5, -math.inf), (2.25, -math.inf),
                              (1.125, -math.inf)]
        assert trials[4][0] == 0.5625 and math.isfinite(trials[4][1])
        # Centered: lambda^2 = (t*(1 - x) - 1)^2 <= _DECREMENT_TOL puts x
        # within 0.05/t of the center 0.9.
        assert ok and x[0] == pytest.approx(0.9, abs=0.005)
        assert max(points) < 1.0


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
