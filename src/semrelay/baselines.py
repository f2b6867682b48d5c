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
    path_factor,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
)

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: n_d points over d_br in [0, D], n_alpha points over
    alpha_br in [alpha_floor, 1 - alpha_floor]."""

    n_d: int = 1001
    n_alpha: int = 1001
    alpha_floor: float = DEFAULT_ALPHA_FLOOR

    def __post_init__(self):
        if self.n_d < 2 or self.n_alpha < 2:
            raise ValueError("grids need at least 2 points per axis")


def _argmax_first(values: np.ndarray):
    """Index of the maximum, first occurrence in C order; None if all masked."""
    flat = np.argmax(values)
    if values.flat[flat] == -np.inf:
        return None
    return np.unravel_index(flat, values.shape)


def _grid_rate(p: SystemParams, fit: SigmoidFit, d_br, alpha_br):
    """SNR and effective rate at d_br, alpha_br (broadcast against each
    other) with d_ru = D - d_br and alpha_ru = 1 - alpha_br; the rate is
    -inf where the similarity threshold fails."""
    gamma = snr_br_db(p, d_br, alpha_br)
    eps = semantic_similarity(fit, gamma)
    eta = np.minimum(
        semantic_bit_rate(p, fit, alpha_br, eps), bit_rate_ru(p, p.D - d_br, 1.0 - alpha_br)
    )
    return gamma, np.where(gamma >= min_snr_threshold_db(fit), eta, -np.inf)


def oracle_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Ground-truth grid search over placement and bandwidth split.

    Enumerates (d_br, alpha_br), sets d_ru = D - d_br and
    alpha_ru = 1 - alpha_br, skips points below the similarity threshold,
    and returns the feasible point with the largest effective rate, or None
    when no grid point is feasible.
    """
    d = np.linspace(0.0, p.D, g.n_d)
    a = np.linspace(g.alpha_floor, 1.0 - g.alpha_floor, g.n_alpha)
    gamma, eta = _grid_rate(p, fit, d[:, None], a[None, :])
    idx = _argmax_first(eta)
    if idx is None:
        return None
    i, j = idx
    return DesignPoint(
        float(d[i]), float(p.D - d[i]), float(a[j]), float(1.0 - a[j]),
        float(gamma[i, j]), float(eta[i, j]),
    )


def df_relay_rate(p: SystemParams, d_br, alpha_br):
    """Rate of a decode-and-forward relay that uses bit transmission on both
    hops, with the same total-bandwidth split; no similarity constraint."""
    alpha = np.asarray(alpha_br, dtype=float)
    safe = np.where(alpha > 0, alpha, 1.0)
    snr = p.P_b * p.rho0_lin / (path_factor(p, d_br) * safe * p.W * p.n0_w_hz)
    r_first = np.where(alpha > 0, alpha * p.W * np.log1p(snr) / _LN2, 0.0)
    r_second = bit_rate_ru(p, p.D - np.asarray(d_br, dtype=float), 1.0 - alpha)
    out = np.minimum(r_first, r_second)
    return float(out) if np.ndim(out) == 0 else out


def df_search(p: SystemParams, g: GridSpec = GridSpec()):
    """Grid argmax of the decode-and-forward rate; same tie-breaking as the
    oracle. Always feasible."""
    d = np.linspace(0.0, p.D, g.n_d)
    a = np.linspace(g.alpha_floor, 1.0 - g.alpha_floor, g.n_alpha)
    eta = df_relay_rate(p, d[:, None], a[None, :])
    i, j = _argmax_first(eta)
    gamma = float(snr_br_db(p, d[i], a[j]))
    return DesignPoint(
        float(d[i]), float(p.D - d[i]), float(a[j]), float(1.0 - a[j]),
        gamma, float(eta[i, j]),
    )


def equal_bandwidth_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Optimized placement under an even bandwidth split; None if no
    feasible placement exists."""
    d = np.linspace(0.0, p.D, g.n_d)
    gamma, eta = _grid_rate(p, fit, d, 0.5)
    idx = _argmax_first(eta)
    if idx is None:
        return None
    (i,) = idx
    return DesignPoint(
        float(d[i]), float(p.D - d[i]), 0.5, 0.5, float(gamma[i]), float(eta[i])
    )


def fixed_placement_search(p: SystemParams, fit: SigmoidFit, g: GridSpec = GridSpec()):
    """Optimized bandwidth split with the relay fixed midway; None if no
    feasible split exists.

    At the optimum the semantic-hop bandwidth alpha_br * W respects the
    similarity-threshold ceiling of max_semantic_bandwidth(p, fit, D/2);
    with a large total bandwidth that ceiling binds and the rate saturates.
    """
    a = np.linspace(g.alpha_floor, 1.0 - g.alpha_floor, g.n_alpha)
    d_mid = p.D / 2.0
    gamma, eta = _grid_rate(p, fit, d_mid, a)
    idx = _argmax_first(eta)
    if idx is None:
        return None
    (j,) = idx
    return DesignPoint(
        d_mid, d_mid, float(a[j]), float(1.0 - a[j]), float(gamma[j]), float(eta[j])
    )
