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
import sys
from dataclasses import dataclass

from semrelay import barrier
from semrelay.bounds import (
    LocalPoint,
    log_path_coeffs,
    logistic_coeffs,
    logistic_v,
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
# A few ulps: the rounding error of a slack relative to the terms it subtracts.
_ULPS = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SubproblemSolution:
    """Result of one convex block solve."""

    point: dict[str, float]
    objective: float  # penalized block objective, bits/s
    status: str  # "optimal" | "max-iter" | "infeasible"
    path: tuple = ()  # the barrier's centers, the warm path of the next solve


def rate_scale(p: SystemParams, fit: SigmoidFit) -> float:
    """Ceiling of the semantic hop at full bandwidth, used as rate unit."""
    return semantic_bit_rate(p, fit, 1.0, fit.a1 + fit.a2)


def _interior(hi: float, lo: float) -> float:
    """A point strictly inside (lo, hi), _REL_MARGIN of the width below hi."""
    x = hi - max(1e-9, _REL_MARGIN * (hi - lo))
    return x if x > lo else 0.5 * (hi + lo)


def _log_sum(s) -> float:
    """sum(log s) of the slacks s, or -inf when one is not positive or is
    NaN. (min passes over a NaN that is not first, and log keeps it.)"""
    if not min(s) > 0.0:
        return -math.inf
    total = sum(map(math.log, s))
    return total if total == total else -math.inf


def _newton_dx(g, a00, a11, a22, a33, a02, a03, a13, a23, k=1.0):
    """Solve A dx = g / k for the symmetric A = (a_ij) of a block's four
    variables (x0, x1, x2, x3), whose only cross terms are (x0, x2),
    (x0, x3), (x1, x3) and (x2, x3): eliminate x1 into x3, then solve the
    3x3 system in (x0, x2, x3) by LDL^T. None when a pivot is not positive.
    """
    if not (a00 > 0.0 and a11 > 0.0):
        return None
    g0, g1, g2, g3 = g
    if k != 1.0:
        g0, g1, g2, g3 = g0 / k, g1 / k, g2 / k, g3 / k
    k1 = a13 / a11
    l20, l30 = a02 / a00, a03 / a00
    d2 = a22 - l20 * a02
    if not d2 > 0.0:
        return None
    l32 = (a23 - l30 * a02) / d2
    d3 = a33 - k1 * a13 - l30 * a03 - l32 * l32 * d2
    if not d3 > 0.0:
        return None
    rhs2 = g2 - l20 * g0
    dx3 = (g3 - k1 * g1 - l30 * g0 - l32 * rhs2) / d3
    dx2 = rhs2 / d2 - l32 * dx3
    dx0 = g0 / a00 - l20 * dx2 - l30 * dx3
    return dx0, (g1 - a13 * dx3) / a11, dx2, dx3


def _solve(slacks, objective, newton, z0, names, R0, path) -> SubproblemSolution:
    """Maximize objective(*z) subject to slacks(*z) > 0 by the log-barrier
    method, from the warm path of an earlier solve of the block or else
    from the strictly feasible start z0.

    z ends with the rate variable in units of R0; names label the other
    coordinates of the returned point. newton(z, t, k, s) returns
    (grad, dx, rate) of the barrier objective at an interior z with slacks
    s, where dx solves (t*A_f + k*B) dx = grad as in `barrier`, or is None
    when a pivot is not positive, and rate = min(ds_i/(s_i + pad_i)) over
    the slacks, with ds_i the derivative of slack i along dx and pad_i a
    bound on its rounding error, a few ulps of the terms it subtracts. The
    slacks are concave, so no step x + s*dx at or beyond the first zero of
    a falling slack's tangent lies in the domain; at -(s_i + pad_i)/ds_i
    that tangent is -pad_i, so no step past -1/rate lies in the domain also
    in floating point.
    """
    # The point, slacks and log-sum of the last evaluation: the accepted
    # trial of a line search comes back as the next Newton step's point,
    # and a centered point as the next centering's start. The key is a
    # copy, so a point changed in place is evaluated afresh.
    last_z = last_s = last_log = None

    def at(z):
        nonlocal last_z, last_s, last_log
        key = tuple(z)
        if key != last_z:
            last_z, last_s = key, slacks(*z)
            last_log = _log_sum(last_s)
        return last_log

    def eval_value(z, t):
        log_sum = at(z)
        return log_sum if log_sum == -math.inf else t * objective(*z) + log_sum

    def eval_full(z, t):
        phi = eval_value(z, t)  # leaves the slacks at z in last_s
        if not math.isfinite(phi):
            return phi, None, None, None
        grad, dx, rate = newton(z, t, getattr(t, "k", 1.0), last_s)
        if dx is None:
            return phi, grad, None, None
        # -1 over the fastest relative fall is the first zero of a falling
        # padded slack's tangent.
        return phi, grad, dx, -1.0 / rate if rate < 0.0 else math.inf

    z, ok, centers = barrier.maximize(eval_full, eval_value, z0, len(slacks(*z0)), TOL_SUB, path)
    point = dict(zip(names, z))
    point["eta"] = z[-1] * R0
    return SubproblemSolution(point, objective(*z) * R0, "optimal" if ok else "max-iter", centers)


def solve_placement(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    alpha_ru: float,
    aux: tuple[float, float],
    lam: float,
    nu: float,
    path: tuple = (),
) -> SubproblemSolution:
    """Optimize (d_br, d_ru, gamma, eta) at the fixed split (lp.alpha_br,
    alpha_ru).

    Maximizes eta - (nu/2 lam) * ||d - d_hat||^2 subject to the tangent
    surrogates of the two rate constraints and of the SNR ceiling, the SNR
    threshold, and d >= 0. The ceiling is anchored on lp.gamma_br_db, which
    must be the exact SNR at (lp.d_br, lp.alpha_br). Infeasible when no
    d_br admits the threshold at the fixed split, which signals that the
    bandwidth block must move first.
    path is the `SubproblemSolution.path` of the block's previous solve;
    the barrier starts from its centers when one fits, and the default
    solves cold.
    """
    d_hat_br, d_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = nu / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    H2 = p.H * p.H
    half_beta = p.beta / 2.0
    gamma_min = min_snr_threshold_db(fit)

    u_t, r_t, r_u = rate_ru_coeffs(p, lp, alpha_ru)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    y_t, _, l_y = log_path_coeffs(lp, p.H)
    a1c = alpha_ru * p.W / R0
    b2 = lp.alpha_br * p.W * p.mu / (fit.K * R0)
    # With the log-path tangent the SNR ceiling is a downward parabola in
    # d_br, cap_peak - q3 * d_br^2, equal to lp.gamma_br_db at lp.d_br.
    q3 = 5.0 * p.beta * l_y
    cap_peak = lp.gamma_br_db + q3 * y_t
    if cap_peak <= gamma_min + 1e-12:
        return SubproblemSolution({}, -math.inf, "infeasible")

    def slacks(d_br, d_ru, gamma, y):
        return (
            a1c * (r_t + r_u * ((d_ru * d_ru + H2) ** half_beta - u_t)) - y,
            b2 * (fit.a1 + fit.a2 * (sig_t + sig_v * (logistic_v(fit, gamma) - v_t))) - y,
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

    # The rounding error of each slack: the rate slacks and the box subtract
    # terms of at most y_cap, the SNR slacks terms of at most the larger of
    # cap_peak and gamma_min; d_br and d_ru are their own slacks.
    e_y, e_g = _ULPS * y_cap, _ULPS * max(abs(cap_peak), abs(gamma_min))

    def newton(z, t, k, s):
        d_br, d_ru, gamma, y = z
        s1, s2, s3, s4, s5, s6, s7, s8 = s

        # Nonzero partials of the slacks other than the +-1 entries.
        base = d_ru * d_ru + H2
        s1_dru = a1c * r_u * p.beta * d_ru * base ** (half_beta - 1.0)
        s1_dru2 = a1c * r_u * p.beta * base ** (half_beta - 2.0) * ((p.beta - 1.0) * d_ru * d_ru + H2)
        s2_g = -b2 * fit.a2 * sig_v * fit.c1 * logistic_v(fit, gamma)
        s3_db = -2.0 * q3 * d_br
        r1, r2, r3 = s1_dru / s1, s2_g / s2, s3_db / s3

        grad = (
            t * (-2.0 * w * (d_br - d_hat_br)) + r3 + 1.0 / s4,
            t * (-2.0 * w * (d_ru - d_hat_ru)) + r1 + 1.0 / s5,
            r2 - 1.0 / s3 + 1.0 / s6,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s7 + 1.0 / s8,
        )
        # a_ij = -H_ij, with H = t*hess(f) + sum(s''/s - (s'/s) outer (s'/s)),
        # except that the objective's part is divided by the dual scale k:
        # ((t/k) A_f + B) dx = grad/k is the step (t A_f + k B) dx = grad.
        tw = t / k * 2.0 * w
        a00 = tw + 2.0 * q3 / s3 + r3 * r3 + 1.0 / (s4 * s4)
        a11 = tw - s1_dru2 / s1 + r1 * r1 + 1.0 / (s5 * s5)
        a22 = fit.c1 * r2 + r2 * r2 + 1.0 / (s3 * s3) + 1.0 / (s6 * s6)
        a33 = 1.0 / (s1 * s1) + 1.0 / (s2 * s2) + 1.0 / (s7 * s7) + 1.0 / (s8 * s8)
        # The cross terms are (d_br, gamma), (d_ru, y) and (gamma, y).
        dx = _newton_dx(grad, a00, a11, a22, a33, -r3 / s3, 0.0, -r1 / s1, -r2 / s2, k)
        if dx is None:
            return grad, None, None
        dd_br, dd_ru, dg, dy = dx
        # min(ds_i/(s_i + pad_i)), ds_i the derivative of slack i along dx.
        rate = min((s1_dru * dd_ru - dy) / (s1 + e_y), (s2_g * dg - dy) / (s2 + e_y),
                   (s3_db * dd_br - dg) / (s3 + e_g), dd_br / s4, dd_ru / s5, dg / (s6 + e_g),
                   -dy / (s7 + e_y), dy / (s8 + e_y))
        return grad, dx, rate

    z0 = (d_br0, d_ru0, gamma0, y0)
    return _solve(slacks, objective, newton, z0, ("d_br", "d_ru", "gamma_br_db"), R0, path)


def solve_bandwidth(
    p: SystemParams,
    fit: SigmoidFit,
    lp: LocalPoint,
    aux: tuple[float, float],
    lam: float,
    alpha_floor: float = DEFAULT_ALPHA_FLOOR,
    path: tuple = (),
) -> SubproblemSolution:
    """Optimize (alpha_br, alpha_ru, S, eta) at the fixed placement
    (lp.d_br, lp.d_ru).

    Maximizes eta - (1/2 lam) * ||alpha - alpha_hat||^2. The relay->user
    rate is exact (concave in alpha_ru); the semantic-hop constraints use
    the square and similarity tangents, the latter evaluated at the
    SNR-ceiling tangent, which is affine in alpha_br and anchored on
    lp.gamma_br_db, which must be the exact SNR at (lp.d_br, lp.alpha_br).
    Similarity rises with the SNR, so the SNR sits on that ceiling at every
    optimum and needs no variable of its own; the threshold becomes
    alpha_br < a_max, where the ceiling meets it. Infeasible when a_max is
    at or below the floor.
    path is as in `solve_placement`.
    """
    a_hat_br, a_hat_ru = aux
    R0 = rate_scale(p, fit)
    w = 1.0 / (2.0 * lam * R0)
    y_cap = ETA_CAP_FACTOR
    gamma_min = min_snr_threshold_db(fit)

    c_ru = snr_lin(p, p.P_r, lp.d_ru, 1.0)  # SNR times alpha_ru
    wr = p.W / R0
    q2 = p.W * p.mu / (4.0 * fit.K * R0)
    x_t, sq_t, sq_x = square_coeffs(lp)
    v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
    a_t, _, cap_a = snr_cap_coeffs(lp)
    # SNR ceiling, affine in alpha_br: lp.gamma_br_db + cap_a * (alpha_br - a_t).
    a_max = a_t + (gamma_min - lp.gamma_br_db) / cap_a  # the ceiling meets gamma_min
    if a_max <= alpha_floor:
        return SubproblemSolution({}, -math.inf, "infeasible")

    def slacks(a_br, a_ru, S, y):
        v = logistic_v(fit, lp.gamma_br_db + cap_a * (a_br - a_t))  # at the SNR ceiling
        return (
            wr * a_ru * math.log1p(c_ru / a_ru) / _LN2 - y if a_ru > 0.0 else -math.inf,
            q2 * (sq_t + sq_x * (a_br + S - x_t) - (a_br - S) * (a_br - S)) - y,
            fit.a1 + fit.a2 * (sig_t + sig_v * (v - v_t)) - S,
            a_max - a_br,
            a_br - alpha_floor,
            a_ru - alpha_floor,
            y_cap - y,
            y + y_cap,
        )

    def objective(a_br, a_ru, S, y):
        e_br, e_ru = a_br - a_hat_br, a_ru - a_hat_ru
        return y - w * (e_br * e_br + e_ru * e_ru)

    # Strictly feasible start; a slack taken at zero of the variable it
    # bounds is that variable's upper limit. The incumbent alpha_ru is not
    # part of the expansion point, so the auxiliary copy seeds that
    # coordinate.
    a_br0 = min(max(lp.alpha_br, 2.0 * alpha_floor), alpha_floor + 0.999 * (a_max - alpha_floor))
    a_ru0 = max(2.0 * alpha_floor, a_hat_ru)
    S0 = slacks(a_br0, a_ru0, 0.0, 0.0)[2] - max(1e-9, _REL_MARGIN * fit.a2)
    y0 = _interior(min(*slacks(a_br0, a_ru0, S0, 0.0)[:2], y_cap), -y_cap)

    # The rounding error of each slack: the rate slacks and the box subtract
    # terms of at most y_cap, the similarity slack terms of at most a1 + a2,
    # and the bounds on the split terms near a_max or alpha_floor, where
    # they fall to zero.
    e_y, e_s = _ULPS * y_cap, _ULPS * (fit.a1 + fit.a2)
    e_a, e_f = _ULPS * a_max, _ULPS * alpha_floor

    def newton(z, t, k, s):
        a_br, a_ru, S, y = z
        s1, s2, s3, s4, s5, s6, s7, s8 = s

        # Nonzero partials of the slacks other than the +-1 entries.
        s1_aru = wr * (math.log1p(c_ru / a_ru) - c_ru / (a_ru + c_ru)) / _LN2
        s1_aru2 = -wr * c_ru * c_ru / (a_ru * (a_ru + c_ru) * (a_ru + c_ru) * _LN2)
        s2_abr = q2 * (sq_x - 2.0 * (a_br - S))
        s2_S = q2 * (sq_x + 2.0 * (a_br - S))
        s3_abr = -fit.a2 * sig_v * fit.c1 * cap_a * logistic_v(fit, lp.gamma_br_db + cap_a * (a_br - a_t))
        r1, r2a, r2s, r3 = s1_aru / s1, s2_abr / s2, s2_S / s2, s3_abr / s3

        grad = (
            t * (-2.0 * w * (a_br - a_hat_br)) + r2a + r3 - 1.0 / s4 + 1.0 / s5,
            t * (-2.0 * w * (a_ru - a_hat_ru)) + r1 + 1.0 / s6,
            r2s - 1.0 / s3,
            t - 1.0 / s1 - 1.0 / s2 - 1.0 / s7 + 1.0 / s8,
        )
        # a_ij = -H_ij and the dual scale as in the placement block;
        # s3'' = -c1 * cap_a * s3'.
        tw = t / k * 2.0 * w
        a00 = (tw + 2.0 * q2 / s2 + r2a * r2a + fit.c1 * cap_a * r3 + r3 * r3
               + 1.0 / (s4 * s4) + 1.0 / (s5 * s5))
        a11 = tw - s1_aru2 / s1 + r1 * r1 + 1.0 / (s6 * s6)
        a22 = 2.0 * q2 / s2 + r2s * r2s + 1.0 / (s3 * s3)
        a33 = 1.0 / (s1 * s1) + 1.0 / (s2 * s2) + 1.0 / (s7 * s7) + 1.0 / (s8 * s8)
        a02 = r2a * r2s - 2.0 * q2 / s2 - r3 / s3
        # The cross terms are (alpha_br, S), (alpha_br, y), (alpha_ru, y) and (S, y).
        dx = _newton_dx(grad, a00, a11, a22, a33, a02, -r2a / s2, -r1 / s1, -r2s / s2, k)
        if dx is None:
            return grad, None, None
        da_br, da_ru, dS, dy = dx
        # min(ds_i/(s_i + pad_i)), as in the placement block.
        rate = min((s1_aru * da_ru - dy) / (s1 + e_y),
                   (s2_abr * da_br + s2_S * dS - dy) / (s2 + e_y),
                   (s3_abr * da_br - dS) / (s3 + e_s), -da_br / (s4 + e_a), da_br / (s5 + e_f),
                   da_ru / (s6 + e_f), -dy / (s7 + e_y), dy / (s8 + e_y))
        return grad, dx, rate

    z0 = (a_br0, a_ru0, S0, y0)
    return _solve(slacks, objective, newton, z0, ("alpha_br", "alpha_ru", "S"), R0, path)


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
