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

from semrelay import barrier
from semrelay.bounds import (
    LocalPoint,
    log_path_coeffs,
    logistic_coeffs,
    rate_ru_coeffs,
    snr_cap_coeffs,
    square_coeffs,
)
from semrelay.model import (
    _LN2,
    DEFAULT_ALPHA_FLOOR,
    SigmoidFit,
    SystemParams,
    min_snr_threshold_db,
    semantic_bit_rate,
    snr_lin,
)

# Relative duality gap for each block solve.
TOL_SUB = 1e-9
# The rate variable is additionally boxed at this multiple of the semantic
# ceiling to keep the feasible sets compact for the barrier method; the box
# never binds at a converged solution because alpha_br + alpha_ru -> 1.
# It binds on the way, and the penalty schedule relies on it: in each of the
# first 214 phases of the default W = 1e6 run (zeta falls from 1.73 to the
# 0.82 plateau, alpha_br + alpha_ru lies in 2.6..4.5) both hop rates sit at
# the cap, 1.500 R0. Without the box, and without the matching cap in
# penalty._tighten, W = 1e5 took 5,549 inner cycles and 1e6 took 13,955,
# against 514 and 1,154 with it, and 4,958 of the 11,098 block solves at
# W = 1e5 did not converge.
ETA_CAP_FACTOR = 1.5
# Strict-interior margins used to push the incumbent off the boundary.
DIST_MARGIN_FRAC = 1e-3  # of D, for distances
_REL_MARGIN = 0.05  # fraction of the available slack for gamma, S, eta


@dataclass(frozen=True)
class SubproblemSolution:
    """Result of one convex block solve."""

    point: dict[str, float]
    objective: float  # penalized block objective, bits/s
    status: str  # "optimal" | "max-iter" | "infeasible"


def rate_scale(p: SystemParams, fit: SigmoidFit) -> float:
    """Ceiling of the semantic hop at full bandwidth, used as rate unit."""
    return semantic_bit_rate(p, fit, 1.0, fit.a1 + fit.a2)


def _interior(hi: float, lo: float) -> float:
    """A point strictly inside (lo, hi), _REL_MARGIN of the width below hi."""
    x = hi - max(1e-9, _REL_MARGIN * (hi - lo))
    return x if x > lo else 0.5 * (hi + lo)


def _solve(slacks, objective, newton, z0, names, R0) -> SubproblemSolution:
    """Maximize objective(*z) subject to slacks(*z) > 0 by the log-barrier
    method, from the strictly feasible start z0.

    z ends with the rate variable in units of R0; names label the other
    coordinates of the returned point. newton(z, t, s) returns (grad, dx)
    of the barrier objective at an interior z with slacks s, where dx
    solves (-H) dx = grad, or is None when a pivot of -H is not positive.
    """

    def value(z, t, s):
        if min(s) <= 0.0:
            return -math.inf
        return t * objective(*z) + sum(map(math.log, s))

    def eval_value(z, t):
        return value(z, t, slacks(*z))

    def eval_full(z, t):
        s = slacks(*z)
        phi = value(z, t, s)
        if not math.isfinite(phi):
            return phi, None, None
        return (phi, *newton(z, t, s))

    z, ok = barrier.maximize(eval_full, eval_value, z0, len(slacks(*z0)), TOL_SUB)
    point = dict(zip(names, z))
    point["eta"] = z[-1] * R0
    return SubproblemSolution(point, objective(*z) * R0, "optimal" if ok else "max-iter")


def solve_placement(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    alpha_ru: float,
    aux: tuple[float, float],
    lam: float,
    nu: float,
) -> SubproblemSolution:
    """Optimize (d_br, d_ru, gamma, eta) at the fixed split (lp.alpha_br,
    alpha_ru).

    Maximizes eta - (nu/2 lam) * ||d - d_hat||^2 subject to the tangent
    surrogates of the two rate constraints and of the SNR ceiling, the SNR
    threshold, and d >= 0. Infeasible when no d_br admits the threshold at
    the fixed split, which signals that the bandwidth block must move first.
    """
    alpha_br = lp.alpha_br
    d_hat_br, d_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = nu / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    H2 = p.H * p.H
    half_beta = p.beta / 2.0
    gamma_min = float(min_snr_threshold_db(fit))

    u_t, r_t, r_u = rate_ru_coeffs(p, lp, alpha_ru)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    y_t, _, l_y = log_path_coeffs(lp, p.H)
    a1c = alpha_ru * p.W / R0
    b2 = alpha_br * p.W * p.mu / (fit.K * R0)
    # With the log-path tangent the SNR ceiling is a downward parabola in
    # d_br, cap_peak - q3 * d_br^2, equal to the exact SNR at lp.d_br.
    q3 = 5.0 * p.beta * l_y
    cap_peak = 10.0 * math.log10(snr_lin(p, p.P_b, lp.d_br, alpha_br)) + q3 * y_t
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

    def objective(d_br, d_ru, gamma, y):
        e_br, e_ru = d_br - d_hat_br, d_ru - d_hat_ru
        return y - w * (e_br * e_br + e_ru * e_ru)

    # Strictly feasible start from the incumbent; a slack taken at zero of
    # the variable it bounds is that variable's upper limit.
    margin_d = DIST_MARGIN_FRAC * p.D
    d_br0 = min(max(lp.d_br, margin_d), 0.999 * math.sqrt((cap_peak - gamma_min) / q3))
    d_ru0 = max(lp.d_ru, margin_d)
    gamma0 = _interior(slacks(d_br0, d_ru0, 0.0, 0.0)[2], gamma_min)
    y0 = _interior(min(*slacks(d_br0, d_ru0, gamma0, 0.0)[:2], y_cap), -y_cap)

    def newton(z, t, s):
        d_br, d_ru, gamma, y = z
        s1, s2, s3, s4, s5, s6, s7, s8 = s

        # Nonzero partials of the slacks other than the +-1 entries.
        base = d_ru * d_ru + H2
        s1_dru = a1c * r_u * p.beta * d_ru * base ** (half_beta - 1.0)
        s1_dru2 = a1c * r_u * p.beta * base ** (half_beta - 2.0) * ((p.beta - 1.0) * d_ru * d_ru + H2)
        s2_g = -b2 * fit.a2 * sig_v * fit.c1 * math.exp(-(fit.c1 * gamma + fit.c2))
        s3_db = -2.0 * q3 * d_br
        r1, r2, r3 = s1_dru / s1, s2_g / s2, s3_db / s3

        grad = (
            t * (-2.0 * w * (d_br - d_hat_br)) + r3 + 1.0 / s4,
            t * (-2.0 * w * (d_ru - d_hat_ru)) + r1 + 1.0 / s5,
            r2 - 1.0 / s3 + 1.0 / s6,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s7 + 1.0 / s8,
        )
        # a_ij = -H_ij, with H = t*hess(f) + sum(s''/s - (s'/s) outer (s'/s)).
        a00 = t * 2.0 * w + 2.0 * q3 / s3 + r3 * r3 + 1.0 / (s4 * s4)
        a11 = t * 2.0 * w - s1_dru2 / s1 + r1 * r1 + 1.0 / (s5 * s5)
        a22 = fit.c1 * r2 + r2 * r2 + 1.0 / (s3 * s3) + 1.0 / (s6 * s6)
        a33 = 1.0 / (s1 * s1) + 1.0 / (s2 * s2) + 1.0 / (s7 * s7) + 1.0 / (s8 * s8)
        a02, a13, a23 = -r3 / s3, -r1 / s1, -r2 / s2
        # The only cross terms are (d_br, gamma), (d_ru, y) and (gamma, y):
        # eliminate d_br and d_ru, then solve the 2x2 system in (gamma, y).
        if not (a00 > 0.0 and a11 > 0.0):
            return grad, None
        k0, k1 = a02 / a00, a13 / a11
        b22, b33 = a22 - k0 * a02, a33 - k1 * a13
        if not b22 > 0.0:
            return grad, None
        l23 = a23 / b22
        b33 -= l23 * a23
        if not b33 > 0.0:
            return grad, None
        g0, g1, g2, g3 = grad
        rhs2 = g2 - k0 * g0
        dy = (g3 - k1 * g1 - l23 * rhs2) / b33
        dg = (rhs2 - a23 * dy) / b22
        return grad, ((g0 - a02 * dg) / a00, (g1 - a13 * dy) / a11, dg, dy)

    z0 = (d_br0, d_ru0, gamma0, y0)
    return _solve(slacks, objective, newton, z0, ("d_br", "d_ru", "gamma_br_db"), R0)


def solve_bandwidth(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    aux: tuple[float, float],
    lam: float,
    alpha_floor: float = DEFAULT_ALPHA_FLOOR,
) -> SubproblemSolution:
    """Optimize (alpha_br, alpha_ru, gamma, S, eta) at the fixed placement
    (lp.d_br, lp.d_ru).

    Maximizes eta - (1/2 lam) * ||alpha - alpha_hat||^2. The relay->user
    rate is exact (concave in alpha_ru); the semantic-hop constraints use
    the square, similarity and SNR-ceiling tangents. Infeasible when the
    SNR threshold fails for every alpha_br down to the floor.
    """
    a_hat_br, a_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = 1.0 / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    gamma_min = float(min_snr_threshold_db(fit))

    c_ru = snr_lin(p, p.P_r, lp.d_ru, 1.0)  # SNR times alpha_ru
    wr = p.W / R0
    q2 = p.W * p.mu / (4.0 * fit.K * R0)
    x_t, sq_t, sq_x = square_coeffs(lp)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    a_t, cap_t, cap_a = snr_cap_coeffs(lp)
    # SNR ceiling, affine in alpha_br: cd + cap_t + cap_a * (alpha_br - a_t).
    cd = 10.0 * math.log10(snr_lin(p, p.P_b, lp.d_br, 1.0))
    a_max_strict = a_t + (gamma_min - cd - cap_t) / cap_a  # the ceiling meets gamma_min
    if a_max_strict <= alpha_floor:
        return SubproblemSolution({}, -math.inf, "infeasible")

    def slacks(a_br, a_ru, gamma, S, y):
        return (
            wr * a_ru * math.log1p(c_ru / a_ru) / _LN2 - y if a_ru > 0.0 else -math.inf,
            q2 * (sq_t + sq_x * (a_br + S - x_t) - (a_br - S) * (a_br - S)) - y,
            fit.a1 + fit.a2 * (sig_t + sig_v * (math.exp(-(fit.c1 * gamma + fit.c2)) - v_t)) - S,
            cd + cap_t + cap_a * (a_br - a_t) - gamma,
            a_br - alpha_floor,
            a_ru - alpha_floor,
            gamma - gamma_min,
            y_cap - y,
            y + y_cap,
        )

    def objective(a_br, a_ru, gamma, S, y):
        e_br, e_ru = a_br - a_hat_br, a_ru - a_hat_ru
        return y - w * (e_br * e_br + e_ru * e_ru)

    # Strictly feasible start; a slack taken at zero of the variable it
    # bounds is that variable's upper limit. The incumbent alpha_ru is not
    # part of the expansion point, so the auxiliary copy seeds that
    # coordinate.
    a_br_hi = alpha_floor + 0.999 * (a_max_strict - alpha_floor)
    a_br0 = min(max(lp.alpha_br, 2.0 * alpha_floor), a_br_hi)
    a_ru0 = max(2.0 * alpha_floor, a_hat_ru)
    gamma0 = _interior(slacks(a_br0, a_ru0, 0.0, 0.0, 0.0)[3], gamma_min)
    S0 = slacks(a_br0, a_ru0, gamma0, 0.0, 0.0)[2] - max(1e-9, _REL_MARGIN * fit.a2)
    y0 = _interior(min(*slacks(a_br0, a_ru0, gamma0, S0, 0.0)[:2], y_cap), -y_cap)

    def newton(z, t, s):
        a_br, a_ru, gamma, S, y = z
        s1, s2, s3, s4, s5, s6, s7, s8, s9 = s

        # Nonzero partials of the slacks other than the +-1 entries.
        s1_aru = wr * (math.log1p(c_ru / a_ru) - c_ru / (a_ru + c_ru)) / _LN2
        s1_aru2 = -wr * c_ru * c_ru / (a_ru * (a_ru + c_ru) * (a_ru + c_ru) * _LN2)
        s2_abr = q2 * (sq_x - 2.0 * (a_br - S))
        s2_S = q2 * (sq_x + 2.0 * (a_br - S))
        s3_g = -fit.a2 * sig_v * fit.c1 * math.exp(-(fit.c1 * gamma + fit.c2))
        r1, r2a, r2s, r3, r4 = s1_aru / s1, s2_abr / s2, s2_S / s2, s3_g / s3, cap_a / s4

        grad = (
            t * (-2.0 * w * (a_br - a_hat_br)) + r2a + r4 + 1.0 / s5,
            t * (-2.0 * w * (a_ru - a_hat_ru)) + r1 + 1.0 / s6,
            r3 - 1.0 / s4 + 1.0 / s7,
            r2s - 1.0 / s3,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s8 + 1.0 / s9,
        )
        # a_ij = -H_ij, as in the placement block.
        a00 = t * 2.0 * w + 2.0 * q2 / s2 + r2a * r2a + r4 * r4 + 1.0 / (s5 * s5)
        a11 = t * 2.0 * w - s1_aru2 / s1 + r1 * r1 + 1.0 / (s6 * s6)
        a22 = fit.c1 * r3 + r3 * r3 + 1.0 / (s4 * s4) + 1.0 / (s7 * s7)
        a33 = 2.0 * q2 / s2 + r2s * r2s + 1.0 / (s3 * s3)
        a44 = 1.0 / (s1 * s1) + 1.0 / (s2 * s2) + 1.0 / (s8 * s8) + 1.0 / (s9 * s9)
        a03 = r2a * r2s - 2.0 * q2 / s2
        a04, a14, a02, a23, a34 = -r2a / s2, -r1 / s1, -r4 / s4, -r3 / s3, -r2s / s2
        # The cross terms are (alpha_br, gamma), (alpha_br, S), (alpha_br, y),
        # (alpha_ru, y), (gamma, S) and (S, y): eliminate alpha_ru into y and
        # gamma into (alpha_br, S), then solve the 3x3 system in
        # (alpha_br, S, y) by LDL^T.
        if not (a11 > 0.0 and a22 > 0.0):
            return grad, None
        g0, g1, g2, g3, g4 = grad
        k1, k20, k23 = a14 / a11, a02 / a22, a23 / a22
        b00, b03, b33 = a00 - k20 * a02, a03 - k20 * a23, a33 - k23 * a23
        b44 = a44 - k1 * a14
        rhs0, rhs3, rhs4 = g0 - k20 * g2, g3 - k23 * g2, g4 - k1 * g1
        if not b00 > 0.0:
            return grad, None
        l30, l40 = b03 / b00, a04 / b00
        d3 = b33 - l30 * b03
        if not d3 > 0.0:
            return grad, None
        l43 = (a34 - l40 * b03) / d3
        d4 = b44 - l40 * a04 - l43 * l43 * d3
        if not d4 > 0.0:
            return grad, None
        rhs3 -= l30 * rhs0
        rhs4 -= l40 * rhs0 + l43 * rhs3
        dy = rhs4 / d4
        dS = rhs3 / d3 - l43 * dy
        da_br = rhs0 / b00 - l30 * dS - l40 * dy
        dg = (g2 - a02 * da_br - a23 * dS) / a22
        return grad, (da_br, (g1 - a14 * dy) / a11, dg, dS, dy)

    z0 = (a_br0, a_ru0, gamma0, S0, y0)
    return _solve(slacks, objective, newton, z0, ("alpha_br", "alpha_ru", "gamma_br_db", "S"), R0)


def solve_auxiliary(
    d: tuple[float, float],
    alpha: tuple[float, float],
    D: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Closed-form update of the auxiliary copies.

    Euclidean projection of (d, alpha) onto the two sum constraints
    d_hat_br + d_hat_ru = D and alpha_hat_br + alpha_hat_ru = 1: each pair
    splits its shortfall evenly. Independent of the penalty coefficient and
    of the distance weight nu, which weights both distance terms uniformly.
    """
    d_shift = (D - d[0] - d[1]) / 2.0
    a_shift = (1.0 - alpha[0] - alpha[1]) / 2.0
    return (
        (d[0] + d_shift, d[1] + d_shift),
        (alpha[0] + a_shift, alpha[1] + a_shift),
    )
