"""Independent reference computations used as test oracles.

Everything here recomputes expected values by a route different from the
implementation under test: tangent lines built from finite differences,
grid or ternary searches instead of the barrier method, and parabolic
minimization for the projection. Keep these free of imports from the
solver internals beyond the plain model formulas.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from semrelay.model import (
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    min_snr_threshold_db,
    semantic_similarity,
)


def random_fit(rng) -> SigmoidFit:
    a1 = rng.uniform(0.05, 0.6)
    a2 = rng.uniform(0.1, min(0.99 - a1, 0.9))
    c1 = rng.uniform(0.05, 1.0)
    c2 = rng.uniform(-5.0, 5.0)
    k = rng.uniform(1.0, 8.0)
    frac = rng.uniform(0.05, 0.95)
    eps_bar = a1 + frac * a2
    return SigmoidFit(a1=a1, a2=a2, c1=c1, c2=c2, K=k, eps_bar=eps_bar)


def random_params(rng) -> SystemParams:
    return SystemParams(
        D=rng.uniform(20.0, 500.0),
        H=rng.uniform(0.0, 60.0),
        rho0_db=rng.uniform(-80.0, -40.0),
        beta=rng.uniform(2.0, 4.0),
        P_b=rng.uniform(0.01, 1.0),
        P_r=rng.uniform(0.01, 1.0),
        N0_dbm_hz=rng.uniform(-180.0, -150.0),
        W=10.0 ** rng.uniform(4.0, 8.0),
        mu=rng.uniform(8.0, 80.0),
    )


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def tangent_of(f, x_t, x, h):
    """First-order Taylor model of f around x_t, slope by central difference."""
    return f(x_t) + central_diff(f, x_t, h) * (x - x_t)


def rate_ru_exact(p: SystemParams, alpha_ru, d_ru):
    return bit_rate_ru(p, d_ru, alpha_ru)


def rate_ru_tangent_oracle(p: SystemParams, alpha_ru, d_ru_t, d_ru):
    """Tangent of the relay->user rate in u = (d^2+H^2)^(beta/2)."""

    def in_u(u):
        snr = p.P_r * p.rho0_lin / (u * alpha_ru * p.W * p.n0_w_hz)
        return alpha_ru * p.W * np.log1p(snr) / np.log(2.0)

    u_t = (d_ru_t**2 + p.H**2) ** (p.beta / 2.0)
    u = (d_ru**2 + p.H**2) ** (p.beta / 2.0)
    return tangent_of(in_u, u_t, u, u_t * 1e-6)


def sigmoid_tangent_oracle(fit: SigmoidFit, gamma_t, gamma):
    """Tangent of 1/u in u = 1 + exp(-(c1 gamma + c2))."""

    def in_u(u):
        return 1.0 / u

    u_t = 1.0 + np.exp(-(fit.c1 * gamma_t + fit.c2))
    u = 1.0 + np.exp(-(fit.c1 * gamma + fit.c2))
    return tangent_of(in_u, u_t, u, u_t * 1e-7)


def log_path_tangent_oracle(H, d_t, d):
    """Tangent of log10(y + H^2) in y = d^2."""

    def in_y(y):
        return np.log10(y + H * H)

    return tangent_of(in_y, d_t * d_t, d * d, max(d_t * d_t, 1.0) * 1e-7)


def snr_cap_tangent_oracle(p: SystemParams, d_br, alpha_t, alpha):
    """Tangent of the exact SNR ceiling in alpha_br."""

    def exact(a):
        u = (d_br**2 + p.H**2) ** (p.beta / 2.0)
        return 10.0 * np.log10(p.P_b * p.rho0_lin / (u * a * p.W * p.n0_w_hz))

    return tangent_of(exact, alpha_t, alpha, alpha_t * 1e-7)


def placement_grid_oracle(p, fit, lp, alpha, aux_d, lam, nu, eta_cap):
    """Best penalized objective of the placement surrogate program on a
    (d_br, d_ru) grid over [0, D]^2 with step D/1000, resolving gamma and
    eta in closed form per point."""
    step = p.D / 1000.0
    h2 = p.H * p.H
    hb = p.beta / 2.0
    gamma_min = float(min_snr_threshold_db(fit))
    u_t = (lp.d_ru**2 + h2) ** hb
    snr_t = p.P_r * p.rho0_lin / (u_t * alpha[1] * p.W * p.n0_w_hz)
    e1 = np.log1p(snr_t) / np.log(2.0)
    e2 = (snr_t / u_t) * np.log2(np.e) / (1.0 + snr_t)
    chi_t = fit.c1 * lp.gamma_br_db + fit.c2
    sig = 1.0 / (1.0 + np.exp(-chi_t))
    cb = 10.0 * np.log10(p.P_b * p.rho0_lin / (alpha[0] * p.W * p.n0_w_hz))
    base = lp.d_br**2 + h2
    e5 = np.log10(base)
    e6 = np.log10(np.e) / base

    d = np.arange(0.0, p.D + step / 2.0, step)
    dbr = d[:, None]
    dru = d[None, :]
    gamma = cb - 5.0 * p.beta * (e5 + e6 * (dbr**2 - lp.d_br**2))
    chi = fit.c1 * gamma + fit.c2
    rhs1 = alpha[1] * p.W * (e1 - e2 * ((dru**2 + h2) ** hb - u_t))
    rhs2 = (alpha[0] * p.W * p.mu / fit.K) * (
        fit.a1 + fit.a2 * (sig - sig * sig * (np.exp(-chi) - np.exp(-chi_t)))
    )
    eta = np.minimum(np.minimum(rhs1, rhs2), eta_cap)
    obj = eta - (nu / (2.0 * lam)) * ((dbr - aux_d[0]) ** 2 + (dru - aux_d[1]) ** 2)
    obj = np.where(gamma >= gamma_min, obj, -np.inf)
    return float(np.max(obj))


def bandwidth_grid_oracle(p, fit, lp, d, aux_a, lam, alpha_floor, eta_cap):
    """Best penalized objective of the bandwidth surrogate program: grid
    over alpha_br, closed-form gamma and S, ternary search over alpha_ru.

    The box comes from the problem. The surrogate SNR ceiling lies below
    the exact SNR, so no feasible alpha_br exceeds the fraction at which the
    exact SNR meets the threshold; the grid stops there, or at 3, and has
    3e4 points. Raising alpha_ru alone gains at most the rate cap, so the
    optimum has (alpha_ru - aux)^2 / (2 lam) <= eta_cap.
    """
    h2 = p.H * p.H
    hb = p.beta / 2.0
    gamma_min = float(min_snr_threshold_db(fit))
    u_ru = (d[1] ** 2 + h2) ** hb
    c_ru = p.P_r * p.rho0_lin / (u_ru * p.W * p.n0_w_hz)
    q2 = p.W * p.mu / (4.0 * fit.K)
    t_sum = lp.alpha_br + lp.similarity
    tau_t = fit.c1 * lp.gamma_br_db + fit.c2
    sig = 1.0 / (1.0 + np.exp(-tau_t))
    u_br = (d[0] ** 2 + h2) ** hb
    cd = 10.0 * np.log10(p.P_b * p.rho0_lin / (u_br * p.W * p.n0_w_hz))
    e9 = 10.0 * np.log10(lp.alpha_br)
    e10 = 10.0 * np.log10(np.e) / lp.alpha_br
    w = 1.0 / (2.0 * lam)

    a_br_max = min(3.0, 10.0 ** ((cd - gamma_min) / 10.0))
    a_br = np.arange(alpha_floor, a_br_max, a_br_max / 3e4)
    gamma = cd - e9 - e10 * (a_br - lp.alpha_br)
    tau = fit.c1 * gamma + fit.c2
    s_val = fit.a1 + fit.a2 * (sig - sig * sig * (np.exp(-tau) - np.exp(-tau_t)))
    rhs2 = q2 * (-t_sum**2 + 2.0 * t_sum * (a_br + s_val) - (a_br - s_val) ** 2)
    cap = np.minimum(rhs2, eta_cap)

    lo = np.full_like(a_br, alpha_floor)
    hi = np.full_like(a_br, aux_a[1] + np.sqrt(2.0 * lam * eta_cap))

    def value(a_ru):
        r = a_ru * p.W * np.log1p(c_ru / a_ru) / np.log(2.0)
        return np.minimum(r, cap) - w * ((a_br - aux_a[0]) ** 2 + (a_ru - aux_a[1]) ** 2)

    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        move = value(m1) < value(m2)
        lo = np.where(move, m1, lo)
        hi = np.where(move, hi, m2)
    obj = value((lo + hi) / 2.0)
    obj = np.where(gamma >= gamma_min, obj, -np.inf)
    return float(np.max(obj))


def projection_pair_oracle(x1, x2, total):
    """Minimize (v - x1)^2 + (total - v - x2)^2 by grid plus parabolic
    refinement; exact for this quadratic up to roundoff."""

    def f(v):
        return (v - x1) ** 2 + (total - v - x2) ** 2

    span = abs(x1) + abs(x2) + abs(total) + 1.0
    grid = np.linspace(-span, span, 1001)
    vals = f(grid)
    i = int(np.argmin(vals))
    i = min(max(i, 1), len(grid) - 2)
    vl, vm, vr = grid[i - 1], grid[i], grid[i + 1]
    fl, fm, fr = vals[i - 1], vals[i], vals[i + 1]
    num = (vm - vl) ** 2 * (fm - fr) - (vm - vr) ** 2 * (fm - fl)
    den = (vm - vl) * (fm - fr) - (vm - vr) * (fm - fl)
    v_star = vm - 0.5 * num / den
    return float(v_star), float(total - v_star)


def _exact_definite_solve(a, r):
    """Solve a x = r for the floats in a and r in exact rational arithmetic,
    by Gaussian elimination without pivoting, rounding x to floats once at
    the end; None when a pivot is not positive, that is, when the symmetric
    a is not positive definite."""
    n = len(r)
    m = [[*map(Fraction, map(float, row)), Fraction(float(b))] for row, b in zip(a, r)]
    for k in range(n):
        if m[k][k] <= 0:
            return None
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return np.array([float(v) for v in x])


def primal_dual_warm_point(slacks, partials, missing, w, hat, cap, z, s, t, max_steps=8,
                           fraction=0.99, centered=0.5):
    """Infeasible-start primal-dual Newton steps for the block program
    (Boyd & Vandenberghe, *Convex Optimization*, §11.7): maximize
    f(z) = y - w*((x0 - h0)^2 + (x1 - h1)^2) over z = (x0, x1, x2, y)
    subject to c(z) > 0, with the slacks c of `slacks` and the cap - y
    after them. Each step linearizes t grad f + J^T lam = 0, c - s = 0 and
    lam_i s_i = 1 and solves the reduced system for dz, built densely from
    the gradient and Hessian of every slack, exactly in rational arithmetic
    (`_exact_definite_solve`).

    missing is the index of the bound among (lo0, hi0, lo1, lo2) that the
    program lacks, as in the solver's block program; partials gives (F1',
    F1'', F2_0, F2_2, F2_00, F2_02, F2_22, G', G'') at (x0, x1, x2). From
    slack variables s and duals 1/s, each step is `fraction` of the
    longest that keeps s and lam positive, capped at 1, until
    max |lam_i c_i - 1| < centered. Returns
    (z, steps), with steps the number of steps taken, or (None, steps)
    when a step has no positive definite system, a slack is -inf, or
    max_steps steps do not get there.
    """
    h0, h1 = hat
    e = np.eye(4)
    bound_grads = [e[0], -e[0], e[1], e[2]]
    kept = [g for i, g in enumerate(bound_grads) if i != missing]
    hess_f = np.diag([-2.0 * w, -2.0 * w, 0.0, 0.0])
    z, s = np.array(z, dtype=float), np.array(s, dtype=float)
    lam = 1.0 / s
    for k in range(max_steps + 1):
        c = np.array([*slacks(*z), cap - z[3]])
        if not np.all(c > -np.inf):
            return None, k
        if np.all(np.abs(lam * c - 1.0) < centered):
            return z, k
        if k == max_steps:
            return None, k
        f1, f1_11, f2_0, f2_2, f2_00, f2_02, f2_22, g, g_00 = partials(*z[:3])
        jac = np.array([[0.0, f1, 0.0, -1.0], [f2_0, 0.0, f2_2, -1.0], [g, 0.0, -1.0, 0.0],
                        *kept, -e[3]])
        hess_c = np.zeros((7, 4, 4))
        hess_c[0, 1, 1] = f1_11
        hess_c[1][np.ix_([0, 2], [0, 2])] = [[f2_00, f2_02], [f2_02, f2_22]]
        hess_c[2, 0, 0] = g_00
        grad_f = np.array([-2.0 * w * (z[0] - h0), -2.0 * w * (z[1] - h1), 0.0, 1.0])
        v = lam / s
        rho = (1.0 - lam * c) / s
        a = -t * hess_f - np.einsum("i,ijk->jk", lam, hess_c) + jac.T @ (v[:, None] * jac)
        r = t * grad_f + jac.T @ (lam + rho)
        dz = _exact_definite_solve(a, r)
        if dz is None:
            return None, k
        dc = jac @ dz
        ds = c - s + dc
        dlam = rho - v * dc
        x, dx = np.concatenate([s, lam]), np.concatenate([ds, dlam])
        shrinking = dx < 0.0
        room = np.min(-x[shrinking] / dx[shrinking]) if shrinking.any() else np.inf
        step = min(1.0, fraction * room)
        z, s, lam = z + step * dz, s + step * ds, lam + step * dlam
