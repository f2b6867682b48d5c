import dataclasses
import math
import warnings

import numpy as np
import pytest

from oracles import random_fit, random_params
from semrelay import baselines
from semrelay.baselines import (
    GridSpec,
    df_relay_rate,
    df_search,
    equal_bandwidth_search,
    fixed_placement_search,
    oracle_search,
)
from semrelay.model import (
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    effective_rate,
    max_semantic_bandwidth,
    min_snr_threshold_db,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
    DesignPoint,
)


class TestOracleSearch:
    def test_dominates_random_feasible_points(self, params, fit):
        best = oracle_search(params, fit, GridSpec(401, 401))
        rng = np.random.default_rng(13)
        for _ in range(500):
            d_br = rng.uniform(0.0, params.D)
            a_br = rng.uniform(1e-6, 1.0 - 1e-6)
            pt = DesignPoint(d_br, params.D - d_br, a_br, 1.0 - a_br, 0.0, 0.0)
            eta = effective_rate(params, fit, pt)
            if eta is None:
                continue
            # one grid cell of slack in each axis translates to a small
            # rate difference; dominate up to that tolerance
            assert best.eta >= eta - 0.02 * best.eta

    def test_refinement_never_decreases(self, params, fit):
        etas = [oracle_search(params, fit, GridSpec(n, n)).eta for n in (101, 201, 401, 801)]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_point_consistency(self, params, fit):
        best = oracle_search(params, fit, GridSpec(501, 501))
        assert best.d_br + best.d_ru == pytest.approx(params.D, abs=1e-9)
        assert best.alpha_br + best.alpha_ru == pytest.approx(1.0, abs=1e-12)
        assert best.gamma_br_db == pytest.approx(
            float(snr_br_db(params, best.d_br, best.alpha_br)), abs=1e-12)
        assert best.eta == pytest.approx(
            effective_rate(params, fit, best), rel=1e-12)
        assert float(semantic_similarity(fit, best.gamma_br_db)) >= fit.eps_bar

    def test_infeasible_returns_none(self, fit):
        weak = SystemParams(P_b=1e-9, W=1e8)
        assert oracle_search(weak, fit, GridSpec(101, 101)) is None

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 10)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_d=10.5), "n_d must be an integer"),
        (dict(n_alpha=11.0), "n_alpha must be an integer"),
        (dict(n_d=math.inf), "n_d must be finite"),
        (dict(alpha_floor=math.nan), "alpha_floor must be finite"),
        (dict(alpha_floor=0.6), r"alpha_floor must lie in \(0, 0.5\)"),
        (dict(alpha_floor=-1.0), r"alpha_floor must lie in \(0, 0.5\)"),
    ])
    def test_grid_spec_rejects_before_the_search(self, kwargs, message):
        # Each was accepted, and the search then raised TypeError in
        # linspace, read as infeasible, or returned alpha_br below the floor.
        with pytest.raises(ValueError, match=message):
            GridSpec(**{"n_d": 11, "n_alpha": 11, **kwargs})


class TestDfBaseline:
    def test_reference_rate_at_midpoint(self, params):
        assert df_relay_rate(params, 50.0, 0.5) == pytest.approx(3.458e6, rel=3e-4)
        # both hops identical by symmetry
        assert df_relay_rate(params, 50.0, 0.5) == pytest.approx(
            float(bit_rate_ru(params, 50.0, 0.5)), rel=1e-12)

    def test_starved_hop_gives_zero(self, params):
        assert df_relay_rate(params, 50.0, 0.0) == 0.0
        assert df_relay_rate(params, 50.0, 1.0) == 0.0

    def test_symmetric_maximum_at_center(self, params):
        d = np.linspace(0.0, params.D, 2001)
        rates = df_relay_rate(params, d, 0.5)
        assert d[int(np.argmax(rates))] == pytest.approx(params.D / 2.0, abs=0.1)

    def test_search_returns_center_under_symmetry(self, params):
        best = df_search(params, GridSpec(1001, 1001))
        assert best.d_br == pytest.approx(params.D / 2.0, abs=params.D / 1000.0)
        assert best.alpha_br == pytest.approx(0.5, abs=1e-3)
        assert best.eta == pytest.approx(3.458e6, rel=1e-3)

    def test_refinement_never_decreases(self, params):
        etas = [df_search(params, GridSpec(n, n)).eta for n in (101, 201, 401)]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


class TestRestrictedSchemes:
    def test_dominated_by_oracle(self, params, fit):
        oracle = oracle_search(params, fit, GridSpec(1001, 1001))
        equal = equal_bandwidth_search(params, fit, GridSpec(10001, 10001))
        fixed = fixed_placement_search(params, fit, GridSpec(10001, 10001))
        cell_slack = 0.005 * oracle.eta
        assert equal.eta <= oracle.eta + cell_slack
        assert fixed.eta <= oracle.eta + cell_slack

    def test_equal_bandwidth_pins_split(self, params, fit):
        best = equal_bandwidth_search(params, fit, GridSpec(2001, 2001))
        assert best.alpha_br == 0.5 and best.alpha_ru == 0.5
        assert best.eta == pytest.approx(effective_rate(params, fit, best), rel=1e-12)

    def test_fixed_placement_pins_position_and_obeys_cap(self, params, fit):
        best = fixed_placement_search(params, fit, GridSpec(2001, 2001))
        assert best.d_br == params.D / 2.0 and best.d_ru == params.D / 2.0
        cap = float(max_semantic_bandwidth(params, fit, params.D / 2.0))
        assert best.alpha_br * params.W <= cap * (1.0 + 1e-9)

    def test_fixed_placement_saturates_at_large_bandwidth(self, fit):
        lo = fixed_placement_search(SystemParams(W=1e7), fit, GridSpec(10001, 10001))
        hi = fixed_placement_search(SystemParams(W=2e7), fit, GridSpec(10001, 10001))
        assert hi.eta <= 1.05 * lo.eta

    def test_refinement_never_decreases(self, params, fit):
        for search in (equal_bandwidth_search, fixed_placement_search):
            etas = [search(params, fit, GridSpec(n, n)).eta for n in (101, 201, 401)]
            assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_infeasible_possible(self, fit):
        weak = SystemParams(P_b=1e-9, W=1e8)
        assert equal_bandwidth_search(weak, fit, GridSpec(101, 101)) is None
        assert fixed_placement_search(weak, fit, GridSpec(101, 101)) is None


class TestTrendsAtWideBandwidth:
    """The qualitative design trends, checked where the optimum is sharp.

    Below roughly 1.5e6 Hz the optimum sits in a flat corner (relay nearly
    on top of the user) where the short bit hop outruns the semantic hop in
    spectral efficiency; the trends below only emerge above that regime.
    """

    def test_semantic_hop_gets_less_than_half_the_band(self, params, fit):
        for w in (2e6, 5e6, 1e7, 2e7):
            pt = oracle_search(dataclasses.replace(params, W=w), fit, GridSpec(1001, 1001))
            assert pt.alpha_br < 0.5

    def test_relay_moves_toward_user_as_band_shrinks(self, params, fit):
        cell = params.D / 1000.0
        d_ru = []
        for w in np.logspace(np.log10(2e6), np.log10(3.2e7), 9):
            pt = oracle_search(dataclasses.replace(params, W=float(w)), fit,
                               GridSpec(1001, 1001))
            d_ru.append(pt.d_ru)
        # descending bandwidth: distance to the user never grows beyond a cell
        for larger_w, smaller_w in zip(d_ru[1:], d_ru[:-1]):
            assert smaller_w <= larger_w + cell


class TestSchemeCrossover:
    def test_df_overtakes_semantic_relay_at_wide_bandwidth(self, params, fit):
        # On the default parameter set the switch sits between 20 and 50 MHz;
        # verify the mechanism on a range that brackets it.
        etas_sem = []
        etas_df = []
        for w in np.logspace(6, 8, 9):
            p = dataclasses.replace(params, W=float(w))
            etas_sem.append(oracle_search(p, fit, GridSpec(301, 301)).eta)
            etas_df.append(df_search(p, GridSpec(301, 301)).eta)
        sem = np.array(etas_sem)
        df = np.array(etas_df)
        assert sem[0] > df[0]  # semantic relay wins at small W
        assert df[-1] > sem[-1]  # conventional relay wins at large W
        switched = np.nonzero(df >= sem)[0]
        assert switched.size > 0 and np.all(df[switched[0]:] >= sem[switched[0]:] * 0.999)


class TestZeroAltitude:
    def test_searches_do_not_warn(self, fit):
        # With H = 0 the grids reach d = 0 on both hops, where the SNR is
        # infinite; that limit is the right value and must not warn.
        p = SystemParams(H=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = [
                oracle_search(p, fit),
                df_search(p),
                equal_bandwidth_search(p, fit),
                fixed_placement_search(p, fit),
            ]
        for pt in points:
            assert pt is not None and pt.eta > 0.0


def _whole_grid_point(p, d, a, eta):
    """np.argmax of a rate grid evaluated at once, as the searches return
    it: the first maximum, d_br-major, or None when every rate is -inf."""
    i, j = np.unravel_index(np.argmax(eta), eta.shape)
    if eta[i, j] == -np.inf:
        return None
    return DesignPoint(float(d[i]), float(p.D - d[i]), float(a[j]), float(1.0 - a[j]),
                       float(snr_br_db(p, d[i], a[j])), float(eta[i, j]))


def _whole_grid_search(p, fit, d, a):
    """The effective rate's grid search over d x a on whole-grid arrays."""
    d_col, a_row = d[:, None], a[None, :]
    with np.errstate(divide="ignore"):
        gamma = snr_br_db(p, d_col, a_row)
        eta = np.minimum(semantic_bit_rate(p, fit, a_row, semantic_similarity(fit, gamma)),
                         bit_rate_ru(p, p.D - d_col, 1.0 - a_row))
        return _whole_grid_point(p, d, a, np.where(gamma >= min_snr_threshold_db(fit), eta,
                                                   -np.inf))


class TestBlockedSearches:
    """The searches evaluate their grid a block of rows at a time. Each must
    return, bit for bit, the point of one evaluation of the whole grid with
    the model's functions."""

    @pytest.mark.parametrize("block", [1, 100, baselines._BLOCK])
    def test_blocks_give_the_whole_grid_point(self, monkeypatch, block):
        monkeypatch.setattr(baselines, "_BLOCK", block)
        rng = np.random.default_rng(7)
        cases = [(random_params(rng), random_fit(rng)) for _ in range(8)]
        # Infinite SNRs at H = 0, and a system with no feasible point.
        cases += [(SystemParams(H=0.0), SigmoidFit()),
                  (SystemParams(P_b=1e-9, W=1e8), SigmoidFit())]
        g = GridSpec(37, 53)
        for p, f in cases:
            d = np.linspace(0.0, p.D, g.n_d)
            a = np.linspace(g.alpha_floor, 1.0 - g.alpha_floor, g.n_alpha)
            with np.errstate(divide="ignore"):
                df = _whole_grid_point(p, d, a, df_relay_rate(p, d[:, None], a[None, :]))
            assert repr(oracle_search(p, f, g)) == repr(_whole_grid_search(p, f, d, a))
            assert repr(df_search(p, g)) == repr(df)
            assert (repr(equal_bandwidth_search(p, f, g))
                    == repr(_whole_grid_search(p, f, d, np.array([0.5]))))
            assert (repr(fixed_placement_search(p, f, g))
                    == repr(_whole_grid_search(p, f, np.array([p.D / 2.0]), a)))

    def test_first_maximum_wins_across_blocks(self, monkeypatch, params):
        monkeypatch.setattr(baselines, "_BLOCK", 6)  # two rows of three
        d, a = np.arange(5.0), np.array([0.2, 0.5, 0.8])
        grid = np.full((5, 3), -np.inf)
        assert baselines._first_max(params, d, a, lambda rows: grid[rows]) is None
        grid[1, 2] = grid[3, 0] = grid[4, 1] = 7.0
        best = baselines._first_max(params, d, a, lambda rows: grid[rows])
        assert (best.d_br, best.alpha_br, best.eta) == (1.0, 0.8, 7.0)
        grid[2, 1] = np.nan  # np.argmax stops at the first NaN; no point has it
        with pytest.raises(ValueError, match="eta must be finite"):
            baselines._first_max(params, d, a, lambda rows: grid[rows])
