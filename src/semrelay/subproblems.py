"""Convex block subproblems of the penalized design problem.

Three blocks are optimized in turn: relay placement, bandwidth allocation,
and the auxiliary copies that carry the two sum equality constraints. The
placement and bandwidth blocks are small convex programs built from the
tangent surrogates in `bounds`; they are solved by the log-barrier Newton
method in `barrier`. The auxiliary block is a closed-form Euclidean
projection.

Internally the rate variable is normalized by the semantic-hop ceiling
W*mu*(a1+a2)/K so that tolerances are scale-free; distances stay in meters
and SNR in dB. tol_sub below is relative to that rate scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semrelay import barrier
from semrelay.bounds import (
    LocalPoint,
    log_path_coeffs,
    logistic_coeffs,
    rate_ru_coeffs,
    snr_cap_coeffs,
    square_coeffs,
)
from semrelay.model import SigmoidFit, SystemParams, min_snr_threshold_db, path_factor

# Relative duality gap for each block solve.
TOL_SUB = 1e-9

_LN2 = math.log(2.0)
# The rate variable is additionally boxed at this multiple of the semantic
# ceiling to keep the feasible sets compact for the barrier method; the box
# never binds at a converged solution because alpha_br + alpha_ru -> 1.
ETA_CAP_FACTOR = 1.5
# Strict-interior margins used to push the incumbent off the boundary.
_DIST_MARGIN_FRAC = 1e-3  # of D, for distances
_REL_MARGIN = 0.05  # fraction of the available slack for gamma, S, eta


@dataclass(frozen=True)
class SubproblemSolution:
    """Result of one convex block solve."""

    point: dict[str, float]
    objective: float  # penalized block objective, bits/s
    status: str  # "optimal" | "max-iter" | "infeasible"


def rate_scale(p: SystemParams, fit: SigmoidFit) -> float:
    """Ceiling of the semantic hop at full bandwidth, used as rate unit."""
    return p.W * p.mu * (fit.a1 + fit.a2) / fit.K


def _interior(hi: float, lo: float) -> float:
    """A point strictly inside (lo, hi), _REL_MARGIN of the width below hi."""
    x = hi - max(1e-9, _REL_MARGIN * (hi - lo))
    return x if x > lo else 0.5 * (hi + lo)


def _barrier_value(t: float, f: float, slacks: tuple) -> float:
    """Log-barrier objective t*f + sum(log s), -inf outside the interior."""
    if min(slacks) <= 0.0:
        return -math.inf
    return t * f + sum(map(math.log, slacks))


def solve_placement(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    alpha: tuple[float, float],
    aux: tuple[float, float],
    lam: float,
    nu: float,
) -> SubproblemSolution:
    """Optimize (d_br, d_ru, gamma, eta) at fixed bandwidth split.

    Maximizes eta - (nu/2 lam) * ||d - d_hat||^2 subject to the tangent
    surrogates of the two rate constraints and of the SNR ceiling, the SNR
    threshold, and d >= 0. Infeasible when no d_br admits the threshold at
    the fixed split, which signals that the bandwidth block must move first.
    """
    alpha_br, alpha_ru = alpha
    d_hat_br, d_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = nu / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    H2 = p.H * p.H
    half_beta = p.beta / 2.0
    gamma_min = float(min_snr_threshold_db(fit))

    u_t, r_t, r_u = rate_ru_coeffs(p, lp, alpha_ru)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    y_t, l_t, l_y = log_path_coeffs(lp, p.H)
    a1c = alpha_ru * p.W / R0
    b2 = alpha_br * p.W * p.mu / (fit.K * R0)
    # With the log-path tangent the SNR ceiling is a downward parabola in
    # d_br: cap_peak - q3 * d_br^2.
    cb = 10.0 * math.log10(p.P_b * p.rho0_lin / (alpha_br * p.W * p.n0_w_hz))
    q3 = 5.0 * p.beta * l_y
    cap_peak = cb - 5.0 * p.beta * (l_t - l_y * y_t)
    if cap_peak <= gamma_min + 1e-12:
        return SubproblemSolution({}, -math.inf, "infeasible")

    def slacks(d_br, d_ru, gamma, y):
        return (
            a1c * (r_t + r_u * ((d_ru * d_ru + H2) ** half_beta - u_t)) - y,
            b2 * (fit.a1 + fit.a2 * (sig_t + sig_v * (math.exp(-(fit.c1 * gamma + fit.c2)) - v_t))) - y,
            cap_peak - q3 * d_br * d_br - gamma,
            d_br,
            d_ru,
            gamma - gamma_min,
            y_cap - y,
            y + y_cap,
        )

    def objective(d_br, d_ru, y):
        return y - w * ((d_br - d_hat_br) ** 2 + (d_ru - d_hat_ru) ** 2)

    # Strictly feasible start from the incumbent; a slack taken at zero of
    # the variable it bounds is that variable's upper limit.
    margin_d = _DIST_MARGIN_FRAC * p.D
    d_max_strict = math.sqrt((cap_peak - gamma_min) / q3) if q3 > 0 else math.inf
    d_br0 = min(max(lp.d_br, margin_d), 0.999 * d_max_strict)
    if d_br0 <= 0:
        d_br0 = 0.5 * d_max_strict
    d_ru0 = max(lp.d_ru, margin_d)
    gamma0 = _interior(slacks(d_br0, d_ru0, 0.0, 0.0)[2], gamma_min)
    y0 = _interior(min(*slacks(d_br0, d_ru0, gamma0, 0.0)[:2], y_cap), -y_cap)

    def eval_value(z, t):
        d_br, d_ru, gamma, y = z
        return _barrier_value(t, objective(d_br, d_ru, y), slacks(d_br, d_ru, gamma, y))

    def eval_full(z, t):
        d_br, d_ru, gamma, y = z
        s = slacks(d_br, d_ru, gamma, y)
        s1, s2, s3, s4, s5, s6, s7, s8 = s
        phi = _barrier_value(t, objective(d_br, d_ru, y), s)

        # Nonzero partials of the slacks other than the +-1 entries.
        base = d_ru * d_ru + H2
        s1_dru = a1c * r_u * p.beta * d_ru * base ** (half_beta - 1.0)
        s1_dru2 = a1c * r_u * p.beta * base ** (half_beta - 2.0) * ((p.beta - 1.0) * d_ru * d_ru + H2)
        s2_g = -b2 * fit.a2 * sig_v * fit.c1 * math.exp(-(fit.c1 * gamma + fit.c2))
        s3_db = -2.0 * q3 * d_br

        grad = np.array([
            t * (-2.0 * w * (d_br - d_hat_br)) + s3_db / s3 + 1.0 / s4,
            t * (-2.0 * w * (d_ru - d_hat_ru)) + s1_dru / s1 + 1.0 / s5,
            s2_g / s2 - 1.0 / s3 + 1.0 / s6,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s7 + 1.0 / s8,
        ])
        # Hessian of phi: t*hess(f) + sum(s''/s - (s'/s) outer (s'/s)).
        h = np.zeros((4, 4))
        h[0, 0] = t * (-2.0 * w) - 2.0 * q3 / s3 - (s3_db / s3) ** 2 - 1.0 / (s4 * s4)
        h[1, 1] = t * (-2.0 * w) + s1_dru2 / s1 - (s1_dru / s1) ** 2 - 1.0 / (s5 * s5)
        h[2, 2] = -fit.c1 * s2_g / s2 - (s2_g / s2) ** 2 - 1.0 / (s3 * s3) - 1.0 / (s6 * s6)
        h[3, 3] = -1.0 / (s1 * s1) - 1.0 / (s2 * s2) - 1.0 / (s7 * s7) - 1.0 / (s8 * s8)
        h[0, 2] = h[2, 0] = s3_db / (s3 * s3)
        h[1, 3] = h[3, 1] = s1_dru / (s1 * s1)
        h[2, 3] = h[3, 2] = s2_g / (s2 * s2)
        return phi, grad, h

    z0 = np.array([d_br0, d_ru0, gamma0, y0])
    z, ok = barrier.maximize(eval_full, eval_value, z0, len(slacks(*z0)), TOL_SUB)
    d_br, d_ru, gamma, y = (float(v) for v in z)
    point = {"d_br": d_br, "d_ru": d_ru, "gamma_br_db": gamma, "eta": y * R0}
    return SubproblemSolution(point, objective(d_br, d_ru, y) * R0, "optimal" if ok else "max-iter")


def solve_bandwidth(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    d: tuple[float, float],
    aux: tuple[float, float],
    lam: float,
    alpha_floor: float = 1e-6,
) -> SubproblemSolution:
    """Optimize (alpha_br, alpha_ru, gamma, S, eta) at fixed placement.

    Maximizes eta - (1/2 lam) * ||alpha - alpha_hat||^2. The relay->user
    rate is exact (concave in alpha_ru); the semantic-hop constraints use
    the square, similarity and SNR-ceiling tangents. Infeasible when the
    SNR threshold fails for every alpha_br down to the floor.
    """
    d_br, d_ru = d
    a_hat_br, a_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = 1.0 / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    gamma_min = float(min_snr_threshold_db(fit))

    c_ru = p.P_r * p.rho0_lin / (path_factor(p, d_ru) * p.W * p.n0_w_hz)  # SNR times alpha_ru
    wr = p.W / R0
    q2 = p.W * p.mu / (4.0 * fit.K * R0)
    x_t, sq_t, sq_x = square_coeffs(lp)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    a_t, cap_t, cap_a = snr_cap_coeffs(lp)
    # SNR ceiling, affine in alpha_br: cd + cap_t + cap_a * (alpha_br - a_t).
    cd = 10.0 * math.log10(p.P_b * p.rho0_lin / (path_factor(p, d_br) * p.W * p.n0_w_hz))
    a_max_strict = a_t + (gamma_min - cd - cap_t) / cap_a  # the ceiling meets gamma_min
    if a_max_strict <= alpha_floor:
        return SubproblemSolution({}, -math.inf, "infeasible")

    def slacks(a_br, a_ru, gamma, S, y):
        return (
            wr * a_ru * math.log1p(c_ru / a_ru) / _LN2 - y,
            q2 * (sq_t + sq_x * (a_br + S - x_t) - (a_br - S) ** 2) - y,
            fit.a1 + fit.a2 * (sig_t + sig_v * (math.exp(-(fit.c1 * gamma + fit.c2)) - v_t)) - S,
            cd + cap_t + cap_a * (a_br - a_t) - gamma,
            a_br - alpha_floor,
            a_ru - alpha_floor,
            gamma - gamma_min,
            y_cap - y,
            y + y_cap,
        )

    def objective(a_br, a_ru, y):
        return y - w * ((a_br - a_hat_br) ** 2 + (a_ru - a_hat_ru) ** 2)

    # Strictly feasible start; a slack taken at zero of the variable it
    # bounds is that variable's upper limit. The incumbent alpha_ru is not
    # part of the expansion point, so the auxiliary copy seeds that
    # coordinate.
    a_br_hi = alpha_floor + 0.999 * (a_max_strict - alpha_floor)
    a_br0 = min(max(lp.alpha_br, 2.0 * alpha_floor), a_br_hi)
    if not alpha_floor < a_br0 < a_max_strict:
        a_br0 = 0.5 * (alpha_floor + a_max_strict)
    a_ru0 = max(2.0 * alpha_floor, a_hat_ru)
    gamma0 = _interior(slacks(a_br0, a_ru0, 0.0, 0.0, 0.0)[3], gamma_min)
    S0 = slacks(a_br0, a_ru0, gamma0, 0.0, 0.0)[2] - max(1e-9, _REL_MARGIN * fit.a2)
    y0 = _interior(min(*slacks(a_br0, a_ru0, gamma0, S0, 0.0)[:2], y_cap), -y_cap)

    def eval_value(z, t):
        a_br, a_ru, gamma, S, y = z
        if a_ru <= alpha_floor:  # outside the domain of the exact rate
            return -math.inf
        return _barrier_value(t, objective(a_br, a_ru, y), slacks(a_br, a_ru, gamma, S, y))

    def eval_full(z, t):
        a_br, a_ru, gamma, S, y = z
        s = slacks(a_br, a_ru, gamma, S, y)
        s1, s2, s3, s4, s5, s6, s7, s8, s9 = s
        phi = _barrier_value(t, objective(a_br, a_ru, y), s)

        # Nonzero partials of the slacks other than the +-1 entries.
        s1_aru = wr * (math.log1p(c_ru / a_ru) - c_ru / (a_ru + c_ru)) / _LN2
        s1_aru2 = -wr * c_ru * c_ru / (a_ru * (a_ru + c_ru) ** 2 * _LN2)
        s2_abr = q2 * (sq_x - 2.0 * (a_br - S))
        s2_S = q2 * (sq_x + 2.0 * (a_br - S))
        s3_g = -fit.a2 * sig_v * fit.c1 * math.exp(-(fit.c1 * gamma + fit.c2))

        grad = np.array([
            t * (-2.0 * w * (a_br - a_hat_br)) + s2_abr / s2 + cap_a / s4 + 1.0 / s5,
            t * (-2.0 * w * (a_ru - a_hat_ru)) + s1_aru / s1 + 1.0 / s6,
            s3_g / s3 - 1.0 / s4 + 1.0 / s7,
            s2_S / s2 - 1.0 / s3,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s8 + 1.0 / s9,
        ])
        h = np.zeros((5, 5))
        r2a, r2s = s2_abr / s2, s2_S / s2
        h[0, 0] = t * (-2.0 * w) - 2.0 * q2 / s2 - r2a * r2a - (cap_a / s4) ** 2 - 1.0 / (s5 * s5)
        h[1, 1] = t * (-2.0 * w) + s1_aru2 / s1 - (s1_aru / s1) ** 2 - 1.0 / (s6 * s6)
        h[2, 2] = -fit.c1 * s3_g / s3 - (s3_g / s3) ** 2 - 1.0 / (s4 * s4) - 1.0 / (s7 * s7)
        h[3, 3] = -2.0 * q2 / s2 - r2s * r2s - 1.0 / (s3 * s3)
        h[4, 4] = -1.0 / (s1 * s1) - 1.0 / (s2 * s2) - 1.0 / (s8 * s8) - 1.0 / (s9 * s9)
        h[0, 3] = h[3, 0] = 2.0 * q2 / s2 - r2a * r2s
        h[0, 4] = h[4, 0] = r2a / s2
        h[0, 2] = h[2, 0] = cap_a / (s4 * s4)
        h[1, 4] = h[4, 1] = s1_aru / (s1 * s1)
        h[2, 3] = h[3, 2] = s3_g / (s3 * s3)
        h[3, 4] = h[4, 3] = r2s / s2
        return phi, grad, h

    z0 = np.array([a_br0, a_ru0, gamma0, S0, y0])
    z, ok = barrier.maximize(eval_full, eval_value, z0, len(slacks(*z0)), TOL_SUB)
    a_br, a_ru, gamma, S, y = (float(v) for v in z)
    point = {
        "alpha_br": a_br,
        "alpha_ru": a_ru,
        "gamma_br_db": gamma,
        "S": S,
        "eta": y * R0,
    }
    return SubproblemSolution(point, objective(a_br, a_ru, y) * R0, "optimal" if ok else "max-iter")


def solve_auxiliary(
    d: tuple[float, float],
    alpha: tuple[float, float],
    D: float,
    nu: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Closed-form update of the auxiliary copies.

    Euclidean projection of (d, alpha) onto the two sum constraints
    d_hat_br + d_hat_ru = D and alpha_hat_br + alpha_hat_ru = 1: each pair
    splits its shortfall evenly. Independent of the penalty coefficient and
    of nu, since nu weights both distance terms uniformly.
    """
    del nu
    d_shift = (D - d[0] - d[1]) / 2.0
    a_shift = (1.0 - alpha[0] - alpha[1]) / 2.0
    return (
        (d[0] + d_shift, d[1] + d_shift),
        (alpha[0] + a_shift, alpha[1] + a_shift),
    )
