import math
import operator
from dataclasses import replace

import numpy as np
import pytest

from semrelay import barrier, subproblems
from semrelay.bounds import LocalPoint, rate_ru_coeffs
from semrelay.model import (
    DEFAULT_ALPHA_FLOOR,
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    max_semantic_bandwidth,
    min_snr_threshold_db,
    path_factor,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
)
from semrelay.subproblems import (
    DIST_MARGIN_FRAC,
    ETA_CAP_FACTOR,
    TOL_SUB,
    _Block,
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
    primal_dual_warm_point,
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


def _hex(sol):
    """Every field of a block solution, each float as float.hex: the warm
    state's point and slacks, but not its block, which a solve without a
    warm state builds anew."""
    return (sol.status, sol.objective.hex(), {k: v.hex() for k, v in sol.point.items()},
            [[v.hex() for v in part] for part in sol.warm[:2]])


def _built(slacks, partials, missing, w, hat):
    """The block program of (slacks, partials, missing), refreshed to w and
    hat; the transcription `primal_dual_warm_point` takes the same
    arguments."""
    program = subproblems._program(slacks, partials, missing)
    program.refresh(w, hat)
    return program


def _synthetic_block(program, start, R0=1.0):
    """A `_Block` of program, whose refresh leaves the program as it is and
    returns start, for `_solve(block, warm)`."""
    return _Block(program, lambda cold: start, ("x0", "x1", "x2"), R0)


def _record_programs(m, on_warm_point=lambda record, call: None):
    """Patch subproblems._program, through the monkeypatch m, to log each
    program that a block builds as a record [args, program] in the returned
    list, with args the arguments of `_built` at the program's last
    refresh. Each warm_point call of the program first calls
    on_warm_point(record, call), with call its arguments."""
    made = []
    build = subproblems._program

    def recording(slacks, partials, missing):
        program = build(slacks, partials, missing)
        record = [None, program]

        def refresh(w, hat):
            record[0] = (slacks, partials, missing, w, hat)
            program.refresh(w, hat)

        def warm_point(*call):
            on_warm_point(record, call)
            return program.warm_point(*call)

        made.append(record)
        return program._replace(refresh=refresh, warm_point=warm_point)

    m.setattr(subproblems, "_program", recording)
    return made


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

    def test_degenerate_relay_user_tangent_is_taken_at_the_margin(self, fit):
        # At H = 0 the default run reaches an incumbent with d_ru = 4e-50 at
        # alpha_ru = 2e-6. The relay->user tangent there has u_t = 6e-149
        # and slope -inf, so F1 would be -inf or NaN at every d_ru. At
        # alpha_ru = 0.7 the slope is finite, about -2e148, but the tangent
        # is about -2e145 at the cold start's d_ru, DIST_MARGIN_FRAC * D,
        # where the spectral efficiency it bounds is >= 0. In both cases the
        # block takes the tangent at that d_ru instead, and is solved: its
        # rate stays below the exact relay->user rate, which that tangent
        # bounds from below.
        p = SystemParams(H=0.0)
        d = (p.D / 2.0, 4e-50)
        margin_d_ru = DIST_MARGIN_FRAC * p.D
        for alpha, slope_finite in (((0.3, 2e-6), False), ((0.3, 0.7), True)):
            lp = _incumbent_lp(p, fit, d, alpha)
            tangent = rate_ru_coeffs(p, lp, alpha[1])
            assert math.isfinite(tangent.slope) == slope_finite, alpha
            assert not tangent.at(path_factor(p, margin_d_ru)) > -1e140, alpha
            margin = replace(lp, d_ru=margin_d_ru)
            assert math.isfinite(rate_ru_coeffs(p, margin, alpha[1]).slope)
            sol = solve_placement(p, fit, lp, alpha[1], d, 1000.0, 1e-4)
            assert sol.status == "optimal" and sol.warm, alpha
            assert 0.0 < sol.point["d_ru"] < p.D
            assert sol.point["eta"] <= float(bit_rate_ru(p, sol.point["d_ru"], alpha[1])) * (1 + 1e-9)

    def test_warm_solve_keeps_a_tangent_negative_at_the_margin(self, fit):
        # A warm solve starts from the block's last point, not at the
        # margin, and keeps the incumbent's relay->user tangent even where
        # it is negative at the margin, as the default H = 0 run does in 251
        # warm solves whose incumbent d_ru lies below the margin. A solve
        # through a block newly built for the incumbent, from the same warm
        # point and slacks, gives the same bits.
        p = SystemParams(H=0.0)
        d, alpha = (p.D - 0.01, 0.01), (0.3, 0.7)
        lp = _incumbent_lp(p, fit, d, alpha)
        tangent = rate_ru_coeffs(p, lp, alpha[1])
        assert tangent.at(path_factor(p, DIST_MARGIN_FRAC * p.D)) < 0.0
        first = solve_placement(p, fit, lp, alpha[1], d, 1000.0, 1e-4)
        assert first.status == "optimal"
        z, s, block = first.warm
        warm = solve_placement(p, fit, lp, alpha[1], d, 900.0, 1e-4, first.warm)
        fresh = solve_placement(p, fit, lp, alpha[1], d, 900.0, 1e-4,
                                (z, s, subproblems._block((), subproblems._placement_block, p, fit)))
        assert warm.status == "optimal" and _hex(warm) == _hex(fresh)
        # The warm solve's rate at its point is the incumbent's tangent's.
        a1c = alpha[1] * p.W / rate_scale(p, fit)
        x = warm.warm[0]
        assert warm.warm[1][0] == pytest.approx(
            a1c * tangent.at(path_factor(p, x[1])) - x[3], rel=1e-9, abs=1e-12)

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


def _cold_calls(monkeypatch, p, f, d, alpha):
    """For each real block solved cold at the incumbent (d, alpha), as in
    TestBlockDerivatives: the args (of `_built`) and the `_Program` of its
    program, and the arguments (z, s, t, max_steps) of its one primal-dual
    call, the cold one."""
    made = []
    with monkeypatch.context() as m:
        _record_programs(m, lambda record, call: made.append((*record, *call)))
        lp = _incumbent_lp(p, f, d, alpha)
        assert solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4).status == "optimal"
        assert solve_bandwidth(p, f, lp, alpha, 1000.0).status == "optimal"
    assert len(made) == 2
    return made


class TestBlockDerivatives:
    """The gradient and the Newton direction that each block's eval_full
    computes by hand, against central differences of its eval_value and of
    that gradient, at the barrier's start point and halfway to its
    solution; the primal-dual step of the same assembly, against eval_full's
    direction at duals 1/c_i and against the carried-duals step at duals
    k/c_i, and against central differences of the primal-dual system at an
    infeasible start; and both callbacks outside the barrier domain."""

    @classmethod
    def _check_points(cls, program, x0, x):
        """_check at a strictly feasible point x0, halfway to the solution
        x and near x, at t = 10, 1e4 and t_final = 7e9. At t_final the
        Newton step from a point far from the center is long, and
        differences resolve its system only near the center."""
        near = 0.99 * x + 0.01 * x0
        for z in (x0, 0.5 * (x0 + x), near):
            for t in (10.0, 1e4, 7e9):
                cls._check(program, z, t, differences=t < 1e6 or z is near)

    @staticmethod
    def _check(program, z, t, differences=True):
        eval_full, eval_value = program.eval_full, program.eval_value
        phi, grad, dx = eval_full(z, t)
        assert dx is not None
        c = program.slacks(z.tolist())
        # At duals 1/c_i and slack variables c_i the primal-dual step is
        # eval_full's Newton step.
        dz = program.step(z.tolist(), t, [1.0 / ci for ci in c], list(c))[0]
        assert np.abs(np.subtract(dz, dx)).max() <= 1e-12 * np.abs(dx).max(), (dz, dx)
        if not differences:
            return
        grad = np.asarray(grad)
        n = len(z)
        h = 1e-6 * (np.abs(z) + 1e-3)
        unit = np.eye(n)
        if t < 1e6:
            # Beyond, t*f swamps the differences of eval_value in rounding.
            for i in range(n):
                g_fd = (eval_value(z + h[i] * unit[i], t)
                        - eval_value(z - h[i] * unit[i], t)) / (2.0 * h[i])
                assert abs(g_fd - grad[i]) <= 1e-5 * (abs(grad[i]) + 1e-6 * np.linalg.norm(grad)), i
        # The Hessian of phi is t*H_f + H_b: H_b is that of the barrier at
        # t = 0, by central differences of eval_full's gradient, and H_f
        # that of the quadratic objective, by second differences, exact for
        # a quadratic; their steps H are long, so that the penalty term
        # outweighs the rounding of the rest.
        hess_b = np.column_stack([
            (np.asarray(eval_full(z + h[i] * unit[i], 0.0)[1])
             - np.asarray(eval_full(z - h[i] * unit[i], 0.0)[1])) / (2.0 * h[i])
            for i in range(n)])
        f = program.objective
        big = 1e6 * (np.abs(z) + 1.0)
        steps = unit * big[:, None]
        hess_f = np.array([[(f(*(z + ei + ej)) - f(*(z + ei - ej)) - f(*(z - ei + ej))
                             + f(*(z - ei - ej))) / (4.0 * bi * bj)
                            for ej, bj in zip(steps, big)] for ei, bi in zip(steps, big)])
        for k in (1.0, 10.0, 100.0):
            # The primal-dual step at duals k/c_i and slack variables c_i
            # is the carried-duals step, which solves
            # -(t*H_f + k*H_b) dz = grad.
            dz = np.asarray(program.step(z.tolist(), t, [k / ci for ci in c], list(c))[0])
            hess = t * hess_f + k * hess_b
            # Each row of hess dz + grad vanishes on the scale of the
            # products it sums.
            residual = hess @ dz + grad
            assert np.all(np.abs(residual) <= 1e-5 * (np.abs(hess) @ np.abs(dz))), (k, residual)

    @staticmethod
    def _record(monkeypatch):
        """Patch subproblems._program and barrier.maximize to log
        [program, x0, x] of every block program into the returned list: its
        `_Program`, a strictly feasible point x0 away from the solution and
        not centered, and the solution x, where the program's last
        centering ends. From the start z of the program's first primal-dual
        call (the incumbent, with one slack 0, in a solve without a warm
        state), x0 lies 5% of the way to the center at t = 1 that
        primal-dual steps reach from z: the slacks are concave, so a slack
        that is 0 at z is positive there, and every other slack keeps most
        of its value. Finite differences resolve the checks of
        _check_points at such points; at 2% or 20% of the way, or towards
        the center at t = 10, they lose the gradient in x2 at t = 1e4 or the
        Hessian near x at t_final to rounding or truncation on one block or
        another."""
        calls = []
        maximize = barrier.maximize

        def first_call(record, call):
            program = record[1]
            if not any(entry[0] is program for entry in calls):
                z, s = call[:2]
                center = program.warm_point(z, s, 1.0, subproblems._PD_COLD_STEPS)
                calls.append([program, np.add(z, 0.05 * np.subtract(center, z))])

        def recording_maximize(eval_full, *args):
            out = maximize(eval_full, *args)
            entry = next(entry for entry in calls if entry[0].eval_full is eval_full)
            entry[2:] = [np.asarray(out[0])]
            return out

        _record_programs(monkeypatch, first_call)
        monkeypatch.setattr(barrier, "maximize", recording_maximize)
        return calls

    def test_eval_full_matches_finite_differences(self, params, fit, monkeypatch):
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1000.0)
        assert [len(x0) for _, x0, _ in calls] == [4, 4] * 4
        for program, x0, x in calls:
            self._check_points(program, x0, x)

    def test_strong_penalty_matches_finite_differences(self, params, fit, monkeypatch):
        # At lam = 1000 the objective's part of the Hessian is negligible
        # against the barrier's; at lam = 1e-3 it is not, and the dual scale
        # weighs the two against each other.
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1e-3, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1e-3)
        for program, x0, x in calls:
            self._check_points(program, x0, x)

    def test_primal_dual_step_solves_the_linearized_system(self, params, fit, monkeypatch):
        # At a point where the rate lies above F1 and F2, so that their
        # slacks are negative, with positive slack variables s that are not
        # the slacks c and duals lam that are not 1/s, (dz, ds, dlam) solves
        # the linearization of
        #   t grad f + sum lam_i grad c_i = 0,  c - s = 0,  lam_i s_i = 1,
        # whose derivatives are taken by central differences of f and c.
        calls = self._record(monkeypatch)
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            solve_bandwidth(p, f, lp, alpha, 1000.0)
        t = 10.0
        for program, x0, x in calls:
            def slacks(v):
                return np.asarray(program.slacks(list(v)))

            def lagrangian(v):
                return t * program.objective(*v) + lam @ slacks(v)

            c_x = slacks(x)
            z = x.copy()
            z[3] += 1.5 * min(c_x[0], c_x[1])
            c = slacks(z)
            assert min(c[0], c[1]) < 0.0
            s = 1.3 * np.abs(c) + 1e-3 * np.abs(c).max()
            lam = 2.0 / s
            dz, ds, dlam = map(np.asarray, program.step(z.tolist(), t, lam.tolist(), s.tolist()))
            # Long steps: the second differences below nest two central
            # differences, whose rounding grows as the steps shrink. The
            # floor 1e-2 keeps them long for coordinates near 0, such as a
            # rate of 4e-4 R0, where steps on a floor of 1e-3 left a
            # rounding error of 2e-4 in a row whose terms sum to 16.
            h = 1e-4 * (np.abs(z) + 1e-2)

            def grad_fd(fn, v):
                out = np.zeros(4)
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h[i]
                    out[i] = (fn(v + e) - fn(v - e)) / (2.0 * h[i])
                return out

            eps = 1e-3 / max(1.0, np.abs(dz / (np.abs(z) + 1e-2)).max())
            terms = [
                grad_fd(lagrangian, z),
                (grad_fd(lagrangian, z + eps * dz) - grad_fd(lagrangian, z - eps * dz)) / (2 * eps),
                grad_fd(lambda v: dlam @ slacks(v), z),
            ]
            assert np.all(np.abs(sum(terms)) <= 1e-5 * sum(map(np.abs, terms))), terms
            jdz = (slacks(z + eps * dz) - slacks(z - eps * dz)) / (2 * eps)
            terms = [c, -s, jdz, -ds]
            assert np.all(np.abs(sum(terms)) <= 1e-6 * sum(map(np.abs, terms))), terms
            terms = [lam * s, -np.ones_like(s), lam * ds, s * dlam]
            assert np.all(np.abs(sum(terms)) <= 1e-12 * sum(map(np.abs, terms))), terms

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
        (pl, pl_x0, _), (bw, bw_x0, _) = calls
        (_, *pl_rest), (a_br, _, *bw_rest) = pl_x0.tolist(), bw_x0.tolist()
        outside = [(pl, [-1.0, *pl_rest])]
        for a_ru in (0.0, -0.1, DEFAULT_ALPHA_FLOOR):
            outside.append((bw, [a_br, a_ru, *bw_rest]))
        pl_z, bw_z = pl_x0.tolist(), bw_x0.tolist()
        pl_z[2], bw_z[0] = -1e4, 1e4  # gamma, alpha_br
        outside += [(pl, pl_z), (bw, bw_z)]
        pl_z, bw_z = pl_x0.tolist(), bw_x0.tolist()
        pl_z[1] = 1e3 * params.D  # d_ru
        bw_z[1], bw_z[3] = 1e5, 2.0 * ETA_CAP_FACTOR  # alpha_ru, the rate
        outside += [(pl, pl_z), (bw, bw_z)]
        for program, z in outside:
            for t in (10.0, 1e4):
                assert program.eval_value(z, t) == -math.inf, z
                assert program.eval_full(z, t) == (-math.inf, None, None), z

    def test_rate_far_below_the_cap_is_inside_domain(self, params, fit, monkeypatch):
        # The rate variable has no lower bound: it is maximized and F1 and
        # F2 bound it from above. At each block's strictly feasible point
        # with the rate at -10 times the cap, the barrier is finite and its
        # Newton step raises the rate.
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        assert len(calls) == 2
        for program, x0, _ in calls:
            z = [*x0[:-1].tolist(), -10.0 * ETA_CAP_FACTOR]
            for t in (10.0, 1e4):
                assert math.isfinite(program.eval_value(z, t)), z
                phi, _, dx = program.eval_full(z, t)
                assert math.isfinite(phi) and dx[3] > 0.0, (z, dx)

    def test_nan_slack_is_outside_domain(self, params, fit, monkeypatch):
        # A NaN slack, first or after others, puts the point outside the
        # domain; a later slack <= 0 must then not reach math.log.
        calls = self._record(monkeypatch)
        lp = _incumbent_lp(params, fit, (50.0, 50.0), (0.3, 0.7))
        solve_placement(params, fit, lp, 0.7, (50.0, 50.0), 1000.0, 1e-4)
        solve_bandwidth(params, fit, lp, (0.3, 0.7), 1000.0)
        (pl, pl_x0, _), (bw, bw_x0, _) = calls
        nan, inf = math.nan, math.inf
        cases = (
            # placement (d_br, d_ru, gamma, y)
            (pl, pl_x0, {3: nan}),  # every slack of y is NaN, the first too
            (pl, pl_x0, {1: nan, 2: -inf}),  # NaN first, then gamma's slack -inf
            (pl, pl_x0, {0: nan}),  # NaN in the third and fourth slacks only
            # bandwidth (alpha_br, alpha_ru, S, y)
            (bw, bw_x0, {3: nan}),  # every slack of y is NaN, the first too
            (bw, bw_x0, {0: inf, 3: nan}),  # NaN first, then -inf
            (bw, bw_x0, {2: nan}),  # NaN in the second and third slacks only
        )
        for program, x0, change in cases:
            z = x0.tolist()
            for i, v in change.items():
                z[i] = v
            for t in (10.0, 1e4):
                assert program.eval_value(z, t) == -math.inf, z
                assert program.eval_full(z, t) == (-math.inf, None, None), z


class TestBlockProgram:
    """`_solve` of the program that both barrier blocks instantiate, on a
    synthetic instance: F1(x1) = x1, F2(x0, x2) = x2 + x0/2 and
    G(x0) = 1 - x0, each minus a concave quadratic when curved, with the
    bounds 0 < x0 < 0.3 and x1 > 0, and none on x2."""

    Z0 = (0.1, 0.3, 0.2)
    HAT = (0.9, 0.5)

    @classmethod
    def _run(cls, curved, R0=1.0, warm=(), z0=Z0):
        c = 1.0 if curved else 0.0

        def slacks(x0, x1, x2, y):
            d = x0 - x2
            return (x1 - c * x1 * x1 - y, x2 + 0.5 * x0 - c * d * d - y, 1.0 - x0 - c * x0 * x0 - x2,
                    x0, 0.3 - x0, x1)

        def partials(x0, x1, x2):
            d = 2.0 * c * (x0 - x2)
            return (1.0 - 2.0 * c * x1, -2.0 * c, 0.5 - d, 1.0 + d, -2.0 * c, 2.0 * c, -2.0 * c,
                    -1.0 - 2.0 * c * x0, -2.0 * c)

        program = _built(slacks, partials, 3, 1.0, cls.HAT)  # no bound on x2
        return _solve(_synthetic_block(program, z0, R0), warm)

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
        assert self._run(curved=False, R0=2.0, warm=sol.warm).point == pytest.approx(sol.point, abs=1e-9)

    @pytest.mark.parametrize("x0", [0.0, -0.1])
    def test_cold_start_on_or_off_a_bound_reaches_the_optimum(self, x0):
        # A start with a slack of 0 (x0 on its bound) or below 0 takes
        # slack variables of at least _S_FLOOR there, and the primal-dual
        # steps reach the optimum of the start inside the bounds. x2 enters
        # only the slacks of F2 and G, which are not active there, so the
        # optimum leaves it free and the barrier's center fixes it only to
        # the tolerance of the centering, within 0.01 at this curvature.
        want = self._run(curved=True)
        sol = self._run(curved=True, z0=(x0, *self.Z0[1:]))
        assert want.status == sol.status == "optimal"
        assert sol.objective == pytest.approx(want.objective, rel=1e-12)
        for name in ("x0", "x1", "eta"):
            assert sol.point[name] == pytest.approx(want.point[name], rel=1e-9), name
        assert min(sol.warm[1][1:3]) > 0.1
        assert sol.point["x2"] == pytest.approx(want.point["x2"], abs=0.01)

    @pytest.mark.parametrize("curved", [False, True])
    def test_eval_full_matches_finite_differences(self, curved, monkeypatch):
        calls = TestBlockDerivatives._record(monkeypatch)
        self._run(curved)
        ((program, x0, x),) = calls
        TestBlockDerivatives._check_points(program, x0, x)


class TestKeptSlacks:
    """The slacks that a block keeps from one evaluation of a point to the
    next give the same results as a fresh evaluation."""

    @staticmethod
    def _solve_blocks(params, fit):
        """Both blocks on the default system and `_random_cases()`, as in
        TestBlockDerivatives, each solved cold and then warm from its own
        warm state at half the penalty coefficient, through the same
        program."""
        sols = []
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            lp = _incumbent_lp(p, f, d, alpha)
            place = solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4)
            band = solve_bandwidth(p, f, lp, alpha, 1000.0)
            sols += [
                place,
                band,
                solve_placement(p, f, lp, alpha[1], d, 500.0, 1e-4, place.warm),
                solve_bandwidth(p, f, lp, alpha, 500.0, DEFAULT_ALPHA_FLOOR, band.warm),
            ]
        return sols

    def test_kept_slacks_match_a_fresh_evaluation(self, params, fit, monkeypatch):
        calls = TestBlockDerivatives._record(monkeypatch)
        self._solve_blocks(params, fit)
        for program, x0, x in calls:
            eval_full, eval_value = program.eval_full, program.eval_value
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
    """A block solve that starts from the warm state of an earlier solve
    (its final point and slacks; the tests' names call it the path) lands
    on the cold solution, and falls back to the cold solve when its
    primal-dual steps fail."""

    @staticmethod
    def _blocks(p, f, d, alpha):
        """The placement and bandwidth solves at one incumbent, each as a
        function of the warm state."""
        lp = _incumbent_lp(p, f, d, alpha)
        return (
            lambda warm=(): solve_placement(p, f, lp, alpha[1], d, 1000.0, 1e-4, warm),
            lambda warm=(): solve_bandwidth(p, f, lp, alpha, 1000.0, DEFAULT_ALPHA_FLOOR, warm),
        )

    def test_resolve_from_own_path_matches_cold_with_fewer_steps(self, params, fit, barrier_evals,
                                                                 monkeypatch):
        # The work of a solve: its Newton systems, one per primal-dual step
        # and one per barrier Newton point (`_newton_dx`), and its barrier
        # evaluations.
        systems = []
        newton_dx = subproblems._newton_dx

        def counting(*args):
            systems.append(None)
            return newton_dx(*args)

        monkeypatch.setattr(subproblems, "_newton_dx", counting)

        def work():
            return len(systems) + barrier_evals.full + barrier_evals.value

        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]):
            for solve in self._blocks(p, f, d, alpha):
                barrier_evals.reset()
                systems.clear()
                cold = solve()
                cold_work = work()
                barrier_evals.reset()
                systems.clear()
                warm = solve(cold.warm)
                assert cold.status == warm.status == "optimal", i
                assert cold.warm, i
                assert work() < cold_work, i
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9), i
                for name, v in cold.point.items():
                    assert warm.point[name] == pytest.approx(v, rel=1e-9), (i, name)

    def test_cold_steps_run_only_at_t_final(self, params, fit, monkeypatch):
        # A cold solve's primal-dual loop starts at the incumbent with the
        # rate on min(F1, F2, cap), so that one slack is 0 there, and with
        # the slacks raised to _S_FLOOR as slack variables. It takes all its
        # steps at t_final: the transcription of the loop at t_final takes
        # as many steps (`_newton_dx` solves one system per step) to a point
        # within 1e-6 of the loop's.
        t_final = 7 / TOL_SUB  # seven slacks
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]:
            for args, program, z, s, t, cap in _cold_calls(monkeypatch, p, f, d, alpha):
                assert (t, cap) == (t_final, subproblems._PD_COLD_STEPS)
                c = program.slacks(z)
                assert min(c) <= 0.0 < min(s)
                assert list(s) == [max(ci, subproblems._S_FLOOR) for ci in c]
                steps = []
                newton_dx = subproblems._newton_dx

                def counting(*a):
                    steps.append(None)
                    return newton_dx(*a)

                with monkeypatch.context() as m:
                    m.setattr(subproblems, "_newton_dx", counting)
                    got = program.warm_point(z, s, t, cap)
                ref, ref_steps = primal_dual_warm_point(*args, ETA_CAP_FACTOR, z, s, t,
                                                        max_steps=cap)
                assert len(steps) == ref_steps
                assert np.all(np.abs(np.subtract(got, ref)) <= 1e-6 * np.abs(ref)), (got, ref)

    def test_empty_or_outside_path_gives_cold_solution(self, params, fit, monkeypatch):
        place, band = self._blocks(params, fit, (50.0, 50.0), (0.3, 0.7))
        for solve in (place, band):
            cold = solve()
            assert _hex(solve(())) == _hex(cold)
            z, s, block = cold.warm
            # Slack variables three times the slacks, so duals a third of
            # 1/c_i: no primal-dual step may be taken, and the start is not
            # centered enough to skip them.
            with monkeypatch.context() as m:
                m.setattr(subproblems, "_PD_MAX_STEPS", 0)
                assert _hex(solve((z, [3.0 * si for si in s], block))) == _hex(cold)
        # alpha_ru < 0 lies outside the domain of the bandwidth block's
        # exact rate, where its partials are undefined.
        z, s, block = band().warm
        assert _hex(band(((z[0], -0.1, *z[2:]), s, block))) == _hex(band())

    def test_infeasible_start_is_repaired(self, params, fit):
        # d_br < 0 lies outside the placement block's domain, but inside
        # that of its functions: an infeasible start, which the
        # primal-dual steps repair.
        place, _ = self._blocks(params, fit, (50.0, 50.0), (0.3, 0.7))
        cold = place()
        z, s, block = cold.warm
        warm = place(((-1.0, *z[1:]), s, block))
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_path_is_not_mutated(self, params, fit):
        for solve in self._blocks(params, fit, (50.0, 50.0), (0.3, 0.7)):
            z, s, block = solve().warm
            state = ([*z[:-1], 0.99 * z[-1]], list(s), block)
            before = [list(x) for x in state[:2]]
            warm = solve(state)
            assert [list(x) for x in state[:2]] == before
            assert warm.warm[0] is not state[0] and warm.warm[1] is not state[1]


class TestBlockReuse:
    """A block is built at its run's first solve of it and travels in each
    warm state (`subproblems._block`). A solve through a reused block
    equals, bit for bit, a solve through a block newly built for the same
    system from the same warm point and slacks."""

    @staticmethod
    def _solvers(p, f, alpha_floor=DEFAULT_ALPHA_FLOOR):
        """For each block: its solve at the incumbent (d, alpha), with d and
        alpha also the hat, as a function of (d, alpha, lam, warm), and the
        builder and system (`_Block.made_for`) of its block."""
        def place(d, alpha, lam, warm):
            lp = _incumbent_lp(p, f, d, alpha)
            return solve_placement(p, f, lp, alpha[1], d, lam, 1e-4, warm)

        def band(d, alpha, lam, warm):
            lp = _incumbent_lp(p, f, d, alpha)
            return solve_bandwidth(p, f, lp, alpha, lam, alpha_floor, warm)

        return ((place, (subproblems._placement_block, p, f)),
                (band, (subproblems._bandwidth_block, p, f, alpha_floor)))

    def test_reused_block_matches_a_new_one(self, params, fit):
        # Between the two solves the incumbent, lam and the hat move, and
        # the second solve starts from the first one's final point z: a
        # block that kept its program's last evaluation, the slacks at z
        # under the old coefficients, would step from those.
        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]):
            moved_d = (d[0] + 0.01 * p.D, d[1] - 0.01 * p.D)
            moved_alpha = (0.98 * alpha[0], alpha[1] + 0.02 * alpha[0])
            for solve, made_for in self._solvers(p, f):
                first = solve(d, alpha, 1000.0, ())
                z, s, block = first.warm
                reused = solve(moved_d, moved_alpha, 900.0, first.warm)
                assert reused.status == "optimal" and reused.warm[2] is block, i
                new = subproblems._block((), *made_for)
                assert new is not block and new.made_for == block.made_for
                fresh = solve(moved_d, moved_alpha, 900.0, (z, s, new))
                assert fresh.warm[2] is new, i
                assert _hex(reused) == _hex(fresh), i

    def test_warm_state_of_another_system_is_not_reused(self, params, fit):
        # A warm state made for another p, fit or alpha_floor, compared by
        # identity (an equal copy is another object), does not bring its
        # block: the solve builds one for its own system, and gives what a
        # block newly built for that system gives from the same warm point
        # and slacks.
        d, alpha = (50.0, 50.0), (0.3, 0.7)
        warms = [solve(d, alpha, 1000.0, ()).warm for solve, _ in self._solvers(params, fit)]
        # Each system, (p, fit, alpha_floor), and whether the placement and
        # the bandwidth warm state bring their block; the placement block is
        # made for (p, fit) alone.
        systems = [
            ((params, fit, DEFAULT_ALPHA_FLOOR), (True, True)),
            ((SystemParams(W=2e6), fit, DEFAULT_ALPHA_FLOOR), (False, False)),
            ((replace(params), fit, DEFAULT_ALPHA_FLOOR), (False, False)),
            ((params, SigmoidFit(eps_bar=0.85), DEFAULT_ALPHA_FLOOR), (False, False)),
            ((params, replace(fit), DEFAULT_ALPHA_FLOOR), (False, False)),
            ((params, fit, 2e-6), (True, False)),
            ((params, fit, float(str(DEFAULT_ALPHA_FLOOR))), (True, False)),
        ]
        for k, (system, reuses) in enumerate(systems):
            for (solve, made_for), warm, reuse in zip(self._solvers(*system), warms, reuses):
                got = solve(d, alpha, 1000.0, warm)
                fresh = solve(d, alpha, 1000.0, (*warm[:2], subproblems._block((), *made_for)))
                assert got.status == "optimal", k
                assert _hex(got) == _hex(fresh), k
                assert (got.warm[2] is warm[2]) == reuse, k
                assert all(map(operator.is_, got.warm[2].made_for, made_for)), k


def _bits(x):
    """x with every float in it, however nested in tuples and lists, as
    float.hex, so that == compares bits (0.0 and -0.0 differ)."""
    if isinstance(x, float):
        return x.hex()
    return x if x is None else [_bits(v) for v in x]


class TestSharedEvaluation:
    """A block's partials take the subexpressions they share with its
    slacks from the program's last slacks call: d_ru^2 + H^2 and
    logistic_v(gamma) in the placement block, logistic_v at the SNR
    ceiling and log1p(c_ru/a_ru) in the bandwidth block. Whatever the
    program evaluated before, and after a refresh, eval_full and step at a
    point see the partials, bit for bit, that a block newly built and
    refreshed in the same way sees at its first evaluation of the point."""

    T = 10.0

    @staticmethod
    def _blocks(p, f):
        """For each block: its builder and system (`_Block.made_for`), and
        its refresh arguments after the cold flag, as a function of the
        incumbent (d, alpha), which is also the hat, and lam."""
        def place(d, alpha, lam):
            return _incumbent_lp(p, f, d, alpha), alpha[1], d, lam, 1e-4

        def band(d, alpha, lam):
            return _incumbent_lp(p, f, d, alpha), alpha, lam

        return (((subproblems._placement_block, p, f), place),
                ((subproblems._bandwidth_block, p, f, DEFAULT_ALPHA_FLOOR), band))

    @classmethod
    def _probe(cls, program, z, seen):
        """eval_full and step of program at z, and the partials that each
        of them computed."""
        seen.clear()
        full = program.eval_full(z, cls.T)
        c = program.slacks(z)
        step = program.step(z, cls.T, [2.0 / ci for ci in c], list(c))
        assert len(seen) == 2, (z, program.slacks(z))  # z is inside the domain
        return _bits((full, step, seen))

    def test_partials_are_those_of_the_point(self, params, fit, monkeypatch):
        seen = []
        build = subproblems._program

        def logging(slacks, partials, missing):
            def logged(*x):
                seen.append(partials(*x))
                return seen[-1]

            return build(slacks, logged, missing)

        monkeypatch.setattr(subproblems, "_program", logging)
        for i, (p, f, d, alpha) in enumerate(
                [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases()]):
            moved_d = (d[0] + 0.01 * p.D, d[1] - 0.01 * p.D)
            moved_alpha = (0.98 * alpha[0], alpha[1] + 0.02 * alpha[0])
            for made_for, args in self._blocks(p, f):
                block = subproblems._block((), *made_for)
                sol = _solve(block, (), *args(d, alpha, 1000.0))
                assert sol.status == "optimal", i
                # Inside the domain of the block before and after the move:
                # x0 (d_br or alpha_br) and x2 (gamma or S) off their
                # constraints, and a lower rate.
                program, x = block.program, sol.warm[0]
                z1 = [0.95 * x[0], x[1], x[2] - 0.01 * abs(x[2]), x[3] - 0.05]
                z2 = [0.99 * z1[0], 1.01 * z1[1], z1[2], z1[3] - 0.01]

                def fresh(*refresh):
                    new = subproblems._block((), *made_for)
                    assert new.refresh(*refresh) is not None
                    return self._probe(new.program, z1, seen)

                first = self._probe(program, z1, seen)
                assert first == fresh(True, *args(d, alpha, 1000.0)), i
                # Other points between two evaluations of z1: the iterates of
                # primal-dual steps, a trial, a Newton point.
                s2 = [max(abs(c), 1e-3) for c in program.slacks(z2)]
                between = (lambda: program.warm_point(z2, s2, self.T, 3),
                           lambda: program.eval_value(z2, self.T),
                           lambda: program.eval_full(z2, self.T))
                for evaluate in between:
                    assert self._probe(program, z1, seen) == first, i
                    evaluate()
                    assert self._probe(program, z1, seen) == first, i
                # A refresh changes the coefficients at the same point.
                block.refresh(False, *args(moved_d, moved_alpha, 900.0))
                moved = self._probe(program, z1, seen)
                assert moved == fresh(False, *args(moved_d, moved_alpha, 900.0)), i
                assert moved != first, i
                for evaluate in reversed(between):
                    evaluate()
                    assert self._probe(program, z1, seen) == moved, i


class TestPrimalDualLoop:
    """`_Program.warm_point`, the fused primal-dual loop, against
    `oracles.primal_dual_warm_point`, a dense numpy transcription of the
    same method. Each block starts from a point of one program with that
    program's slacks as slack variables (at t = 10 on the real blocks,
    raised to _S_FLOOR), and steps towards the center of a moved program:
    both real blocks after a move of the incumbent, and the synthetic
    block of TestBlockProgram after a move of its hat, once with each of
    its four bounds missing.

    Points agree within 1e-12 at t = 10, where the steps move away from
    the boundary. At t_final = 7e9 the active slacks of a warm state are
    about 1e-10, their weights lam_i/s_i reach 1e20, and the reduced
    system loses digits in rounding: the loop's closed-form solve and the
    transcription's exact rational one then differ by up to 3e-7 in a
    coordinate, so there the points need only agree within 1e-6, also at
    the end of a cold call."""

    T_FINAL = 7 / TOL_SUB

    @staticmethod
    def _compare(args, program, z, s, t, rel=1e-12, max_steps=subproblems._PD_MAX_STEPS):
        """warm_point of program from (z, s) at t, and the transcription of
        the program built from args: both None, or points within rel.
        Returns the point and the transcription's number of steps."""
        got = program.warm_point(z, s, t, max_steps)
        want, steps = primal_dual_warm_point(*args, ETA_CAP_FACTOR, z, s, t, max_steps=max_steps)
        assert (got is None) == (want is None), (got, want, steps)
        if got is not None:
            assert np.all(np.abs(np.subtract(got, want)) <= rel * np.abs(want)), (got, want)
        return got, steps

    @staticmethod
    def _moved_programs(monkeypatch, p, f, d, alpha, shift=0.1):
        """For each real block: the program at the incumbent (d, alpha),
        its final point, and the args (of `_built`) and program of the
        block built after d_br moves by shift*D towards the user and
        alpha_br by shift of itself towards alpha_ru."""
        lp = _incumbent_lp(p, f, d, alpha)
        moved = _incumbent_lp(p, f, (d[0] + shift * p.D, d[1] - shift * p.D),
                              (alpha[0] * (1.0 - shift), alpha[1] + shift * alpha[0]))
        out = []
        with monkeypatch.context() as m:
            made = _record_programs(m)
            for solve in (lambda l: solve_placement(p, f, l, alpha[1], d, 1000.0, 1e-4),
                          lambda l: solve_bandwidth(p, f, l, alpha, 1000.0)):
                made.clear()
                x = solve(lp).warm[0]
                solve(moved)
                (_, old), new = made
                out.append((old, list(x), new))
        return out

    def test_real_blocks_match_the_transcription(self, params, fit, monkeypatch):
        outcomes = []
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]:
            for old, x, (args, new) in self._moved_programs(monkeypatch, p, f, d, alpha):
                # Below the old solution's rate, so that the rate slacks are
                # not near 0, with the old program's slacks there raised to
                # _S_FLOOR, as in a cold start: slacks active at the old
                # solution, such as the SNR ceiling's at 3e-6, would weigh
                # the first steps' systems by 1e11 and leave rounding of
                # 1e-11 in their iterates.
                z = [*x[:3], x[3] - 0.05]
                s = [max(c, subproblems._S_FLOOR) for c in old.slacks(z)]
                got, steps = self._compare(args, new, z, s, 10.0)
                outcomes.append((got is not None, steps))
                # The solver's own case: the old solution and its slacks, at
                # t_final.
                self._compare(args, new, x, old.slacks(x), self.T_FINAL, rel=1e-6)
        # Both ways out are taken: a center after several steps, and no
        # center after the last step.
        assert (True, 3) <= max(outcomes) and (False, subproblems._PD_MAX_STEPS) in outcomes

    def test_cold_calls_match_the_transcription(self, params, fit, monkeypatch):
        # Each block's cold call, from the incumbent at t_final.
        for p, f, d, alpha in [(params, fit, (50.0, 50.0), (0.3, 0.7)), *_random_cases(n=8)]:
            for args, program, z, s, t, cap in _cold_calls(monkeypatch, p, f, d, alpha):
                assert t == self.T_FINAL
                got, steps = self._compare(args, program, z, s, t, 1e-6, cap)
                assert got is not None and steps >= 5, steps

    @staticmethod
    def _synthetic(missing, curve):
        """(slacks, partials, missing) of TestBlockProgram's instance with
        curvature curve and the bounds 0 < x0 < 0.3, x1 > 0 and x2 > 0, of
        which the one at index missing is left out."""
        def slacks(x0, x1, x2, y):
            d = x0 - x2
            kept = [x0, 0.3 - x0, x1, x2]
            del kept[missing]
            return (x1 - curve * x1 * x1 - y, x2 + 0.5 * x0 - curve * d * d - y,
                    1.0 - x0 - curve * x0 * x0 - x2, *kept)

        def partials(x0, x1, x2):
            d = 2.0 * curve * (x0 - x2)
            return (1.0 - 2.0 * curve * x1, -2.0 * curve, 0.5 - d, 1.0 + d, -2.0 * curve,
                    2.0 * curve, -2.0 * curve, -1.0 - 2.0 * curve * x0, -2.0 * curve)

        return slacks, partials, missing

    @pytest.mark.parametrize("missing", range(4))
    def test_synthetic_block_with_each_bound_missing(self, missing):
        # From halfway between the start and the solution of the instance
        # at curvature 1, with its slacks there, towards the center of the
        # instance at curvature 0.8 with another hat.
        old = _built(*self._synthetic(missing, 1.0), 1.0, (0.9, 0.5))
        start = (0.1, 0.3, 0.2)
        sol = _solve(_synthetic_block(old, start), ())
        assert sol.status == "optimal"
        x = sol.warm[0]
        z = [*(0.5 * (a + b) for a, b in zip(x, start)), x[3] - 0.05]
        args = (*self._synthetic(missing, 0.8), 1.0, (0.6, 0.8))
        got, steps = self._compare(args, _built(*args), z, old.slacks(z), 10.0)
        assert got is not None and steps >= 2, steps

    def test_negative_slacks_are_repaired(self, params, fit, monkeypatch):
        # d_br = -1 lies outside the placement block's domain, but inside
        # that of its functions: the steps must bring every slack above 0.
        for old, x, (args, new) in self._moved_programs(monkeypatch, params, fit, (50.0, 50.0),
                                                        (0.3, 0.7))[:1]:
            z = [-1.0, *x[1:3], x[3] - 0.05]
            s = [abs(c) for c in old.slacks(z)]
            assert min(new.slacks(z)) < 0.0
            got, steps = self._compare(args, new, z, s, 10.0)
            assert got is not None and steps >= 1 and min(new.slacks(got)) > 0.0

    def test_failed_steps_return_none(self, params, fit, monkeypatch):
        place, band = self._moved_programs(monkeypatch, params, fit, (50.0, 50.0), (0.3, 0.7))
        # Far below the center at t_final, 8 steps do not get there.
        for old, x, (args, new) in (place, band):
            z = [*x[:3], x[3] - 0.05]
            got, steps = self._compare(args, new, z, old.slacks(z), self.T_FINAL)
            assert got is None and steps == subproblems._PD_MAX_STEPS
        # alpha_ru < 0: outside the domain of the bandwidth block's functions.
        old, x, (args, new) = band
        z = [x[0], -0.1, *x[2:]]
        got, steps = self._compare(args, new, z, old.slacks(x), 10.0)
        assert got is None and steps == 0


def _log_barrier_1d():
    """(eval_full, eval_value) of the one-variable program: maximize
    t*x + log(1 - x), whose center is x = 1 - 1/t."""
    def eval_value(x, t):
        return t * x[0] + math.log(1.0 - x[0]) if x[0] < 1.0 else -math.inf

    def eval_full(x, t):
        s = 1.0 - x[0]
        g = t - 1.0 / s
        return eval_value(x, t), (g,), (g * s * s,)

    return eval_full, eval_value


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

        x, ok = barrier.maximize(full, value, [0.0], 1, 0.1)  # t = 1/0.1 = 10
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
