"""Exhaustive-search oracle and baseline relay schemes.

The two sum equalities eliminate d_ru and alpha_ru, so the whole design
space is a 2-D box over (d_br, alpha_br). The oracle enumerates it on a
grid; the restricted schemes pin one coordinate. Grid evaluation is fully
vectorized and deterministic: the argmax scans d_br-major, so ties resolve
to the smallest d_br, then the smallest alpha_br.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semrelay.model import (
    DEFAULT_ALPHA_FLOOR,
    DesignPoint,
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    min_snr_threshold_db,
    semantic_bit_rate,
    semantic_similarity,
    shannon_rate,
    snr_br_db,
    _require_finite,
    _require_int,
)

# Grid points per block of rows that a search evaluates at once. With
# 16 rows of 1001 points (work arrays of 128 KB) the 1001^2 searches took
# about half the time they take on whole-grid arrays; with 32 or 64 rows
# the time per point was 2 to 3 times that of 16 rows.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: n_d points over d_br in [0, D], n_alpha points over
    alpha_br in [alpha_floor, 1 - alpha_floor]."""

    n_d: int = 1001
    n_alpha: int = 1001
    alpha_floor: float = DEFAULT_ALPHA_FLOOR

    def __post_init__(self):
        _require_finite(self)
        _require_int(self, "n_d", "n_alpha")
        if self.n_d < 2 or self.n_alpha < 2:
            raise ValueError("grids need at least 2 points per axis")
        if not 0 < self.alpha_floor < 0.5:
            raise ValueError("alpha_floor must lie in (0, 0.5)")


def _axes(p: SystemParams, g: GridSpec):
    """The grid's d_br and alpha_br axes."""
    return np.linspace(0.0, p.D, g.n_d), np.linspace(g.alpha_floor, 1.0 - g.alpha_floor, g.n_alpha)


def _first_max(p: SystemParams, d, a, rates):
    """The first maximum of a rate grid over d x a as a DesignPoint, or
    None when every rate is -inf. rates(rows) returns the grid's rows
    d[rows]. The blocks of rows come in order and a later block wins only
    with a larger rate, so the point is np.argmax's over the whole grid,
    which scans d_br-major and stops at the first NaN."""
    n_rows, eta, i, j = max(1, _BLOCK // len(a)), -np.inf, 0, 0
    with np.errstate(divide="ignore"):
        for s in range(0, len(d), n_rows):
            b = np.unravel_index(np.argmax(block := rates(slice(s, s + n_rows))), block.shape)
            if eta == eta and not block[b] <= eta:  # a larger rate, or a NaN
                eta, i, j = block[b], s + b[0], b[1]
    return None if eta == -np.inf else DesignPoint(
        float(d[i]), float(p.D - d[i]), float(a[j]), float(1.0 - a[j]),
        float(snr_br_db(p, d[i], a[j])), float(eta))


def _grid_search(p: SystemParams, fit: SigmoidFit, d, a):
    """Best point of the effective rate over d x a, with d_ru = D - d_br and
    alpha_ru = 1 - alpha_br; points below the similarity threshold are
    skipped. With H = 0 the SNR at either end of the link is infinite,
    which is the right limit there, so that division is not warned about."""

    def rates(rows):
        gamma = snr_br_db(p, d[rows, None], a)
        eta = np.minimum(semantic_bit_rate(p, fit, a, semantic_similarity(fit, gamma)),
                         bit_rate_ru(p, p.D - d[rows, None], 1.0 - a))
        return np.where(gamma >= min_snr_threshold_db(fit), eta, -np.inf)

    return _first_max(p, d, a, rates)


def oracle_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Ground-truth grid search over placement and bandwidth split.

    Enumerates (d_br, alpha_br), sets d_ru = D - d_br and
    alpha_ru = 1 - alpha_br, skips points below the similarity threshold,
    and returns the feasible point with the largest effective rate, or None
    when no grid point is feasible.
    """
    return _grid_search(p, fit, *_axes(p, g))


def df_relay_rate(p: SystemParams, d_br, alpha_br):
    """Rate of a decode-and-forward relay that uses bit transmission on both
    hops, with the same total-bandwidth split; no similarity constraint."""
    alpha = np.asarray(alpha_br, dtype=float)
    r_second = bit_rate_ru(p, p.D - np.asarray(d_br, dtype=float), 1.0 - alpha)
    out = np.minimum(shannon_rate(p, p.P_b, d_br, alpha), r_second)
    return float(out) if np.ndim(out) == 0 else out


def df_search(p: SystemParams, g: GridSpec = GridSpec()):
    """Grid argmax of the decode-and-forward rate; same tie-breaking as the
    oracle. Always feasible. Its SNR is infinite at either end of the link
    when H = 0, as in the oracle."""
    d, a = _axes(p, g)
    return _first_max(p, d, a, lambda rows: df_relay_rate(p, d[rows, None], a))


def equal_bandwidth_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Optimized placement under an even bandwidth split; None if no
    feasible placement exists."""
    return _grid_search(p, fit, _axes(p, g)[0], np.array([0.5]))


def fixed_placement_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Optimized bandwidth split with the relay fixed midway; None if no
    feasible split exists.

    At the optimum the semantic-hop bandwidth alpha_br * W respects the
    similarity-threshold ceiling of max_semantic_bandwidth(p, fit, D/2);
    with a large total bandwidth that ceiling binds and the rate saturates.
    """
    return _grid_search(p, fit, np.array([p.D / 2.0]), _axes(p, g)[1])
