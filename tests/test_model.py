import dataclasses
import math

import numpy as np
import pytest

from semrelay.model import (
    DesignPoint,
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    db_to_lin,
    effective_rate,
    is_feasible,
    lin_to_db,
    max_semantic_bandwidth,
    min_snr_threshold_db,
    semantic_bit_rate,
    semantic_rate,
    semantic_similarity,
    shannon_rate,
    snr_br_db,
    snr_lin,
)
from oracles import random_fit, random_params


class TestSnrBrDb:
    def test_reference_value(self, params):
        # alpha_br * W = 5e5 Hz at the default W = 1 MHz
        assert snr_br_db(params, 50.0, 0.5) == pytest.approx(20.7857, abs=5e-4)

    def test_doubling_bandwidth_costs_3db(self, params):
        base = snr_br_db(params, 50.0, 0.25)
        assert base - snr_br_db(params, 50.0, 0.5) == pytest.approx(
            10.0 * math.log10(2.0), abs=1e-12
        )

    def test_unit_snr_case(self):
        # P_b * rho0 / (W * N0) = 1e-16 / (1e-19 * 1e3) = 1 with a unit path
        # factor (d = 0, H = 1, beta = 2) gives exactly 0 dB.
        p = SystemParams(D=1.0, H=1.0, rho0_db=-160.0, beta=2.0, P_b=1.0,
                         N0_dbm_hz=-160.0, W=1e3, mu=1.0)
        assert snr_br_db(p, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_distance_at_zero_altitude_is_unbounded(self, fit):
        # The path factor vanishes at d = 0 when H = 0: the SNR is +inf on
        # floats as on the grid searches' arrays, and the point is feasible
        # with the bit hop's rate.
        p = SystemParams(H=0.0)
        assert snr_br_db(p, 0.0, 0.5) == math.inf
        with np.errstate(divide="ignore"):
            assert snr_br_db(p, np.array([0.0]), 0.5)[0] == math.inf
        pt = DesignPoint(0.0, p.D, 0.5, 0.5, 0.0, 0.0)
        assert effective_rate(p, fit, pt) == bit_rate_ru(p, p.D, 0.5)
        assert effective_rate(p, fit, pt) == pytest.approx(2038901.98, abs=0.01)
        assert is_feasible(p, fit, pt)

    def test_rejects_nonpositive_alpha(self, params):
        with pytest.raises(ValueError):
            snr_br_db(params, 10.0, 0.0)

    def test_strictly_decreasing_in_d_and_alpha(self, params):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.uniform(0.0, 200.0)
            a = rng.uniform(1e-6, 1.0)
            assert snr_br_db(params, d + 1.0, a) < snr_br_db(params, d, a)
            assert snr_br_db(params, d, min(a * 1.5, 1.0)) < snr_br_db(params, d, a)


class TestSemanticSimilarity:
    def test_saturates_at_a1_plus_a2(self, fit):
        assert semantic_similarity(fit, 1e6) == pytest.approx(fit.a1 + fit.a2, abs=1e-12)
        assert semantic_similarity(fit, -1e6) == pytest.approx(fit.a1, abs=1e-12)

    def test_reference_value_at_zero_db(self, fit):
        assert semantic_similarity(fit, 0.0) == pytest.approx(0.5121, abs=5e-5)

    def test_threshold_round_trip(self, fit):
        thresh = min_snr_threshold_db(fit)
        assert semantic_similarity(fit, thresh) == pytest.approx(fit.eps_bar, abs=1e-12)

    def test_strictly_increasing(self, fit):
        g = np.linspace(-60.0, 60.0, 5000)
        vals = semantic_similarity(fit, g)
        assert np.all(np.diff(vals) > 0)


class TestRates:
    def test_semantic_rate_zero_bandwidth(self, params, fit):
        assert semantic_rate(params, fit, 0.0, 0.9) == 0.0

    def test_semantic_rate_reference(self, params, fit):
        val = semantic_rate(params, fit, 0.5, 0.9365, suts_per_word=1.0)
        assert val == pytest.approx(1.1706e5, rel=1e-4)

    def test_semantic_rate_rejects_nonpositive_density(self, params, fit):
        with pytest.raises(ValueError):
            semantic_rate(params, fit, 0.5, 0.9, suts_per_word=0.0)

    def test_semantic_bit_rate_reference(self, params, fit):
        assert semantic_bit_rate(params, fit, 0.5, 0.9365) == pytest.approx(4.6825e6, rel=1e-6)

    def test_semantic_bit_rate_is_mu_over_suts_times_semantic_rate(self, params, fit):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.0, 1.0)
            eps = rng.uniform(0.0, 1.0)
            spw = rng.uniform(0.1, 10.0)
            lhs = semantic_bit_rate(params, fit, a, eps)
            rhs = semantic_rate(params, fit, a, eps, spw) * params.mu / spw
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_semantic_bit_rate_linear_in_alpha(self, params, fit):
        one = semantic_bit_rate(params, fit, 0.1, 0.9)
        assert semantic_bit_rate(params, fit, 0.3, 0.9) == pytest.approx(3 * one, rel=1e-12)
        assert semantic_bit_rate(params, fit, 0.1, 0.0) == 0.0

    def test_bit_rate_ru_reference(self, params):
        assert bit_rate_ru(params, 50.0, 0.5) == pytest.approx(3.458e6, rel=3e-4)

    def test_bit_rate_ru_zero_alpha(self, params):
        assert bit_rate_ru(params, 50.0, 0.0) == 0.0

    def test_bit_rate_ru_decreasing_in_distance(self, params):
        d = np.linspace(0.0, 200.0, 400)
        rates = bit_rate_ru(params, d, 0.5)
        assert np.all(np.diff(rates) < 0)

    def test_bit_rate_ru_array_zeroes_only_the_starved_entries(self):
        # A grid with alpha <= 0 somewhere takes np.where; one without skips
        # it. Each entry must be the same either way, +inf included (d = 0
        # at H = 0, where the SNR divides by zero). alpha = 0 must not meet
        # that infinite SNR as 0 * inf, an invalid value.
        flat = SystemParams(H=0.0)
        d, a = np.array([[0.0], [50.0]]), np.array([0.0, 0.25, -0.1, 0.5])
        with np.errstate(divide="ignore"):
            rates = bit_rate_ru(flat, d, a)
            alone = [[bit_rate_ru(flat, d[i], a[[j]])[0] for j in (1, 3)] for i in (0, 1)]
        assert rates.shape == (2, 4) and np.all(rates[:, [0, 2]] == 0.0)
        assert rates[:, [1, 3]].tolist() == alone
        assert rates[0, 1] == math.inf


class TestThresholdAndCap:
    def test_threshold_reference(self, fit):
        assert min_snr_threshold_db(fit) == pytest.approx(13.978, abs=1e-3)

    def test_threshold_at_midpoint_similarity(self, fit):
        mid = SigmoidFit(eps_bar=fit.a1 + fit.a2 / 2.0)
        assert min_snr_threshold_db(mid) == pytest.approx(-fit.c2 / fit.c1, abs=1e-12)
        assert min_snr_threshold_db(mid) == pytest.approx(4.666, abs=1e-3)

    def test_threshold_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SigmoidFit(eps_bar=0.95)  # above a1 + a2 = 0.9365
        with pytest.raises(ValueError):
            SigmoidFit(eps_bar=0.3)  # below a1

    def test_cap_reference(self, params, fit):
        assert max_semantic_bandwidth(params, fit, 50.0) == pytest.approx(2.397e6, rel=1e-3)

    def test_cap_attains_threshold_exactly(self, params, fit):
        for d in (0.0, 10.0, 50.0, 99.0):
            cap = max_semantic_bandwidth(params, fit, d)
            snr = snr_br_db(params, d, cap / params.W)
            assert snr == pytest.approx(min_snr_threshold_db(fit), abs=1e-9)

    def test_cap_decreasing_in_distance(self, params, fit):
        d = np.linspace(0.0, 200.0, 300)
        caps = max_semantic_bandwidth(params, fit, d)
        assert np.all(np.diff(caps) < 0)

    def test_cap_meets_the_floor_rule(self):
        # The cap as a fraction of W meets the floor's own SNR rule, with no
        # tolerance, on random (system, d_br) draws; the closed form alone
        # misses it by a few ulps on about a quarter of them.
        rng = np.random.default_rng(1)
        for _ in range(5000):
            p, f = random_params(rng), random_fit(rng)
            d = rng.uniform(0.0, p.D)
            cap = max_semantic_bandwidth(p, f, d)
            assert snr_br_db(p, d, cap / p.W) >= min_snr_threshold_db(f), (p, f, d)

    def test_cap_steps_down_elementwise(self, params, fit):
        # On an array every entry meets the rule at its own d_br.
        d = np.random.default_rng(2).uniform(0.0, params.D, size=2000)
        caps = max_semantic_bandwidth(params, fit, d)
        assert caps.shape == d.shape
        assert np.all(snr_br_db(params, d, caps / params.W) >= min_snr_threshold_db(fit))


class TestEffectiveRate:
    def test_min_of_equal_branches(self, params, fit):
        # pick alpha so both branches match, then eta equals either branch
        pt = DesignPoint(50.0, 50.0, 0.3, 0.7, 0.0, 0.0)
        gamma = snr_br_db(params, pt.d_br, pt.alpha_br)
        eps = semantic_similarity(fit, gamma)
        sem = semantic_bit_rate(params, fit, pt.alpha_br, eps)
        bit = bit_rate_ru(params, pt.d_ru, pt.alpha_ru)
        eta = effective_rate(params, fit, pt)
        assert eta == pytest.approx(min(sem, bit), rel=1e-12)
        assert eta <= sem + 1e-9 and eta <= bit + 1e-9

    def test_reference_min(self, params, fit):
        pt = DesignPoint(50.0, 50.0, 0.5, 0.5, 0.0, 0.0)
        assert effective_rate(params, fit, pt) == pytest.approx(3.458e6, rel=3e-4)

    def test_infeasible_similarity_returns_none(self, params, fit):
        # large distance and tiny SNR push similarity below the floor
        weak = SystemParams(P_b=1e-6)
        pt = DesignPoint(90.0, 10.0, 0.9, 0.1, 0.0, 0.0)
        assert effective_rate(weak, fit, pt) is None

    def test_zero_alpha_br_is_infeasible_not_zero(self, params, fit):
        pt = DesignPoint(50.0, 50.0, 0.0, 1.0, 0.0, 0.0)
        assert effective_rate(params, fit, pt) is None


class TestFloorRule:
    @pytest.mark.parametrize("system", range(6))
    def test_is_feasible_agrees_with_effective_rate_at_the_floor(self, params, fit, system):
        # alpha_br at the floor's edge, from max_semantic_bandwidth, and its
        # neighbours: both functions apply the one SNR rule, with no slack,
        # and the edge itself is feasible.
        rng = np.random.default_rng(3)
        p, f = params, fit
        for _ in range(system):
            p, f = random_params(rng), random_fit(rng)
        for d in (0.3 * p.D, p.D):
            # The cap in Hz does not depend on W, so this W puts the edge
            # at alpha_br = 1/4.
            q = dataclasses.replace(p, W=4.0 * float(max_semantic_bandwidth(p, f, d)))
            edge = float(max_semantic_bandwidth(q, f, d)) / q.W
            # (alpha_br, expected feasibility); one ulp above the edge may
            # fall either way, by the rounding of the cap
            cases = ((edge, True), (math.nextafter(edge, 1.0), None),
                     (edge * (1.0 - 1e-8), True), (edge * (1.0 + 1e-8), False))
            for a, expected in cases:
                pt = DesignPoint(d, q.D - d, a, 1.0 - a, 0.0, 0.0)
                feasible = is_feasible(q, f, pt)
                assert feasible == (effective_rate(q, f, pt) is not None), (d, a)
                assert feasible == (snr_br_db(q, d, a) >= min_snr_threshold_db(f)), (d, a)
                assert expected in (None, feasible), (d, a)

    def test_is_feasible_checks_the_sum_equalities(self, params, fit):
        pt = DesignPoint(50.0, 50.0, 0.3, 0.7, 0.0, 0.0)
        assert is_feasible(params, fit, pt)
        assert not is_feasible(params, fit, dataclasses.replace(pt, d_ru=50.0 + 1e-5))
        assert not is_feasible(params, fit, dataclasses.replace(pt, alpha_ru=0.7 + 1e-7))


def _one(x):
    """x as a one-entry array, which takes a model function's numpy branch."""
    return np.array([x])


class TestScalarPath:
    # The incumbent's path runs the model on floats, in plain math; the grid
    # searches run it on arrays, in numpy. Both branches state one formula.

    @staticmethod
    def _pairs(p, f, d, a):
        """(name, float branch, array branch) of each function at (d, a).
        snr_br_db takes d as a float on both branches: path_factor rounds
        arrays and floats apart in the last bit, and an SNR near 0 dB turns
        that into a large relative difference in dB."""
        snr, gamma = snr_lin(p, p.P_b, d, a), snr_br_db(p, d, a)
        return (
            ("lin_to_db", lin_to_db(snr), lin_to_db(_one(snr))[0]),
            ("snr_br_db", gamma, snr_br_db(p, d, _one(a))[0]),
            ("semantic_similarity", semantic_similarity(f, gamma),
             semantic_similarity(f, _one(gamma))[0]),
            ("shannon_rate", shannon_rate(p, p.P_r, d, a),
             shannon_rate(p, p.P_r, _one(d), _one(a))[0]),
        )

    def test_floats_in_floats_out(self, params, fit):
        for name, scalar, _ in self._pairs(params, fit, 50.0, 0.5):
            assert type(scalar) is float, name
        assert type(max_semantic_bandwidth(params, fit, 50.0)) is float

    def test_agrees_with_the_array_branch(self):
        rng = np.random.default_rng(19)
        for i in range(2000):
            p, f = random_params(rng), random_fit(rng)
            d, a = rng.uniform(0.0, p.D), rng.uniform(1e-6, 1.0)
            for name, scalar, array in self._pairs(p, f, d, a):
                assert scalar == pytest.approx(array, rel=1e-14, abs=0.0), (i, name)

    def test_edges_match_the_array_branch_without_warnings(self, params, fit):
        # pytest turns warnings into errors; the array branch's own
        # divide-by-zero warnings are silenced here, the float branch's
        # would fail the test.
        flat = SystemParams(H=0.0)
        far = 2.0 * 700.0 / fit.c1
        cases = (
            (snr_br_db(flat, 0.0, 0.5), snr_br_db, (flat, _one(0.0), _one(0.5)), math.inf),
            (shannon_rate(flat, flat.P_r, 0.0, 0.5), shannon_rate,
             (flat, flat.P_r, _one(0.0), _one(0.5)), math.inf),
            (shannon_rate(params, params.P_r, 50.0, 0.0), shannon_rate,
             (params, params.P_r, _one(50.0), _one(0.0)), 0.0),
            (lin_to_db(0.0), lin_to_db, (_one(0.0),), -math.inf),
            (semantic_similarity(fit, far), semantic_similarity, (fit, _one(far)), fit.a1 + fit.a2),
            (semantic_similarity(fit, -far), semantic_similarity, (fit, _one(-far)), fit.a1),
            (semantic_similarity(fit, math.inf), semantic_similarity,
             (fit, _one(math.inf)), fit.a1 + fit.a2),
            (semantic_similarity(fit, -math.inf), semantic_similarity,
             (fit, _one(-math.inf)), fit.a1),
        )
        for i, (scalar, fn, args, expected) in enumerate(cases):
            with np.errstate(divide="ignore"):
                array = fn(*args)[0]
            assert scalar == array == expected, i

    def test_underflowing_link_budget_is_unbounded(self, fit):
        # At d_br = 1e-155 with H = 0 and beta = 2 the path factor is 1e-310,
        # not 0, but the SNR's denominator underflows to 0: the SNR is +inf
        # on floats as on arrays, and the point has the semantic hop's
        # ceiling or the relay->user rate, whichever is lower.
        p = SystemParams(H=0.0, beta=2.0)
        d = 1e-155
        scalars = (snr_br_db(p, d, 0.5), max_semantic_bandwidth(p, fit, d))
        with np.errstate(divide="ignore"):
            arrays = (snr_br_db(p, _one(d), _one(0.5))[0],
                      max_semantic_bandwidth(p, fit, _one(d))[0])
        assert scalars == arrays == (math.inf, math.inf)
        pt = DesignPoint(d, 100.0 - d, 0.5, 0.5, 0.0, 0.0)
        assert effective_rate(p, fit, pt) == min(
            semantic_bit_rate(p, fit, 0.5, fit.a1 + fit.a2), bit_rate_ru(p, pt.d_ru, 0.5))

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -1e-300, -1.0, 1e-12, 0.5, 2.0])
    def test_snr_raises_where_the_array_branch_raises(self, params, alpha):
        for a in (alpha, _one(alpha)):
            if alpha <= 0:
                with pytest.raises(ValueError, match="alpha_br must be positive"):
                    snr_br_db(params, 50.0, a)
            else:
                snr_br_db(params, 50.0, a)


class TestUnitsAndValidation:
    def test_db_round_trip(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-200.0, 200.0, size=10000)
        back = lin_to_db(db_to_lin(vals))
        assert np.max(np.abs(back - vals) / np.maximum(np.abs(vals), 1e-300)) < 1e-12

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            SystemParams(D=0.0)
        with pytest.raises(ValueError):
            SystemParams(beta=1.5)
        with pytest.raises(ValueError):
            SystemParams(W=-1.0)
        with pytest.raises(ValueError):
            SigmoidFit(c1=0.0)
        with pytest.raises(ValueError):
            DesignPoint(-1.0, 50.0, 0.5, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("cls, name, value", [
        # Each value passes the field's range check, or the field has none.
        *((SystemParams, name, math.inf) for name in ("D", "H", "beta", "P_b", "P_r", "W", "mu")),
        (SystemParams, "rho0_db", math.nan),
        (SystemParams, "rho0_db", -math.inf),
        (SystemParams, "N0_dbm_hz", math.nan),
        (SystemParams, "N0_dbm_hz", math.inf),
        (SigmoidFit, "c1", math.inf),
        (SigmoidFit, "K", math.inf),
        (SigmoidFit, "c2", math.nan),
        (SigmoidFit, "c2", -math.inf),
    ])
    def test_rejects_non_finite_field(self, cls, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_design_point_rejects_non_finite(self, field, value):
        # Only the SNR may be +inf: zero path loss at H = 0.
        args = [50.0, 50.0, 0.5, 0.5, 0.0, 1.0]
        args[field] = value
        name = ("d_br", "d_ru", "alpha_br", "alpha_ru", "gamma_br_db", "eta")[field]
        if name == "gamma_br_db" and value == math.inf:
            assert DesignPoint(*args).gamma_br_db == math.inf
        else:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                DesignPoint(*args)

    def test_threshold_equivalence_random(self):
        # similarity >= eps_bar exactly when gamma >= threshold
        rng = np.random.default_rng(23)
        for _ in range(200):
            f = random_fit(rng)
            thresh = min_snr_threshold_db(f)
            g = rng.uniform(thresh - 30.0, thresh + 30.0, size=500)
            feas_sim = semantic_similarity(f, g) >= f.eps_bar
            feas_snr = g >= thresh
            ties = np.abs(g - thresh) < 1e-9
            assert np.all((feas_sim == feas_snr) | ties)

    def test_random_params_construct(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            random_params(rng)
            random_fit(rng)
