"""Convex block subproblems of the penalized design problem.

Three blocks are optimized in turn: relay placement, bandwidth allocation,
and the auxiliary copies that carry the two sum equality constraints. The
placement and bandwidth blocks are two instances of one small convex
program, stated in `_program` and solved in `_solve` by infeasible-start
primal-dual steps at t_final and one log-barrier Newton centering there
(`barrier`): the steps start warm from the block's previous solve, or
cold from the incumbent. Each block supplies its surrogates, built from
the tangents in `bounds`, and that incumbent point. `_program` runs the
barrier's callbacks and the primal-dual steps as scalar code on plain
floats, in one fixed order over the seven slacks. A run builds each block
once (`placement_block`, `bandwidth_block`): its constants, its slack and
partial functions and its program; each solve (`solve_placement`,
`solve_bandwidth`) only refreshes the tangent coefficients, the penalty
weight and the hat that these read, and the block keeps the warm start of
its next solve. The auxiliary block is a closed-form Euclidean projection.

Internally the rate variable is normalized by the semantic-hop ceiling
W*mu*(a1+a2)/K so that tolerances are scale-free; distances stay in meters
and SNR in dB. TOL_SUB below is relative to that rate scale.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import itemgetter
from typing import Callable, NamedTuple

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
    logistic_v,
    min_snr_threshold_db,
    path_factor,
    semantic_bit_rate,
    snr_lin,
)

# Relative duality gap for each block solve.
TOL_SUB = 1e-9
# The rate variable is capped at this multiple of the semantic ceiling (it
# has no lower bound; see `_program`). The cap never binds at a converged
# solution because alpha_br + alpha_ru -> 1. It binds on the way, and the
# penalty schedule relies on it: in each of the first 214 phases of the
# default W = 1e6 run (zeta falls from 1.73 to the 0.82 plateau,
# alpha_br + alpha_ru lies in 2.6..4.5) both hop rates sit at the cap,
# 1.500 R0. Without the cap, and without the matching cap in
# penalty._tighten, W = 1e5 took 5,549 inner cycles and 1e6 took 13,955,
# against 514 and 1,154 with it in the same measurement (513 and 1,170
# with the present barrier), and 4,958 of the 11,098 block solves at
# W = 1e5 did not converge.
ETA_CAP_FACTOR = 1.5
# The primal-dual steps of a block solve (`_Program.warm_point`): each is
# the fraction _PD_STEP_FRACTION of the longest step that keeps the slack
# variables and duals positive (capped at 1), until every slack is positive
# and max |lam_i c_i - 1| < _PD_CENTERED at t_final. A warm start takes at
# most _PD_MAX_STEPS of them, a cold start at most _PD_COLD_STEPS: 15 in the
# median of 1,221 cold solves on 68 systems, 44 at most.
_PD_MAX_STEPS = 8
_PD_COLD_STEPS = 200
_PD_STEP_FRACTION = 0.99
_PD_CENTERED = 0.5
# A cold start's slack variables are its slacks, raised to at least
# _S_FLOOR: its rate lies on min(F1, F2, cap), so one slack is 0 there, and
# so are those that the incumbent holds active. Over the about 1,220 cold
# solves of 68 systems every floor from 1e-6 to 0.1 failed none, while 1
# failed one, 10 five and 100 thirty-two; 1/t_final failed an affine block
# with a vertex optimum from 5 of 10 random starts.
_S_FLOOR = 1e-3
# The cold start keeps d_ru this fraction of D off 0, where the relay->user
# partials divide by zero at H = 0, and `penalty.run` keeps its start off
# both ends by the same margin.
DIST_MARGIN_FRAC = 1e-3


class SubproblemSolution(NamedTuple):
    """Result of one convex block solve."""

    point: dict[str, float]
    objective: float  # penalized block objective, bits/s
    status: str  # "optimal" | "max-iter" | "infeasible"


def rate_scale(p: SystemParams, fit: SigmoidFit) -> float:
    """Ceiling of the semantic hop at full bandwidth, used as rate unit."""
    return semantic_bit_rate(p, fit, 1.0, fit.a1 + fit.a2)


def _log_sum(s) -> float:
    """sum(log s) of the slacks s, or -inf when one is not positive or is
    NaN. (min passes over a NaN that is not first, and log keeps it.)"""
    if not min(s) > 0.0:
        return -math.inf
    total = sum(map(math.log, s))
    return total if total == total else -math.inf


def _newton_dx(g, a00, a11, a22, a33, a02, a03, a13, a23):
    """Solve A dx = g for the symmetric A = (a_ij) of a block's four
    variables (x0, x1, x2, x3), whose only cross terms are (x0, x2),
    (x0, x3), (x1, x3) and (x2, x3): eliminate x1 into x3, then solve the
    3x3 system in (x0, x2, x3) by LDL^T. None when a pivot is not positive.
    """
    if not (a00 > 0.0 and a11 > 0.0):
        return None
    g0, g1, g2, g3 = g
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


class _Program(NamedTuple):
    """The callbacks of one block program (see `_program`)."""

    eval_full: Callable  # (z, t) -> (phi, grad, dx), as `barrier` expects
    eval_value: Callable  # (z, t) -> phi
    step: Callable  # (z, t, lam, s) -> (dz, ds, dlam), or None
    warm_point: Callable  # (z, s, t, max_steps) -> near-center point at t, or None
    slacks: Callable  # z -> the seven slacks at z
    objective: Callable  # (x0, x1, x2, y) -> y - w*((x0 - h0)^2 + (x1 - h1)^2)
    refresh: Callable  # (w, hat) -> None: the next solve's w and hat


def _program(slacks, partials, missing) -> _Program:
    """The program of both barrier blocks: over z = (x0, x1, x2, y),
    maximize y - w*((x0 - h0)^2 + (x1 - h1)^2), hat = (h0, h1), subject to

        F1(x1) - y, F2(x0, x2) - y, G(x0) - x2,
        x0 - lo0, hi0 - x0, x1 - lo1, x2 - lo2,
        ETA_CAP_FACTOR - y

    all > 0, with F1, F2 and G concave, except the one of the four bounds
    (lo0, hi0, lo1, lo2) at index missing, which is not there. A block
    supplies slacks(*z), the first six slacks in this order without the
    missing one, and partials(x0, x1, x2), the partials (F1', F1'', F2_0,
    F2_2, F2_00, F2_02, F2_22, G', G''); the cap is added here. y needs no
    lower bound: it is maximized and F1 and F2 bound it from above, so the
    barrier objective falls to -inf as y -> -inf. The program calls
    partials only at the point of its last slacks call, so a block's
    partials may take the subexpressions they share with its slacks from
    that call.

    A block builds its program once per run (`Block`). Before each solve
    it puts that solve's tangent coefficients into the cells that slacks
    and partials read, and calls refresh(w, hat), which sets w and hat and
    forgets the last evaluation.

    One assembly gives the Newton step of the barrier (eval_full) and of
    the primal-dual system (step): for weights lam_i, v_i and q_i of the
    slacks c_i it solves A dz = r, with

        A = t*A_f + sum lam_i (-hess c_i) + sum v_i grad c_i grad c_i^T,
        r = t*grad f + sum q_i grad c_i,

    f the objective and A_f = -hess f. step(z, t, lam, s) takes duals lam
    and slack variables s, which differ from the slacks c at z while the
    start is infeasible; v_i = lam_i/s_i and q_i = lam_i + (1 - lam_i c_i)/s_i,
    and the step returns dz with ds_i = c_i - s_i + grad c_i . dz and
    dlam_i = (1 - lam_i c_i - lam_i grad c_i . dz)/s_i. At lam_i = 1/c_i
    and s_i = c_i, A is -H and r the gradient of the barrier objective:
    that is eval_full. warm_point(z, s, t, max_steps) takes such steps
    from z, with duals 1/s, until it reaches a point near the center at t.

    Everything runs on plain floats in a fixed order over the seven slacks;
    the missing bound's place, whose weights are 0, is resolved once here.
    """
    cap = ETA_CAP_FACTOR
    inf, isfinite = math.inf, math.isfinite
    # The missing bound's place among the eight slacks, and itemgetters that
    # spread seven per-slack values, with a 0.0 appended, over the eight
    # places (the 0.0 in the missing place) and take the seven back out.
    place = 3 + missing
    eight = itemgetter(*range(place), 7, *range(place, 7))
    seven = itemgetter(*(i for i in range(8) if i != place))
    h0 = h1 = w = w2 = m2w = math.nan  # set by refresh
    # The point and slacks of the last evaluation, and their log-sum once an
    # evaluation needed it: the accepted trial of a line search comes back
    # as the next Newton step's point, a centered point as the next
    # centering's start, and the point the primal-dual steps reach as the
    # centering's start. It is the one point whose slacks the block's
    # partials can read. The key is a copy, so a point changed in place is
    # evaluated afresh; refresh drops it, since the slacks at a point change
    # with the coefficients.
    last_z = last_s = last_log = None

    def refresh(weight, hat):
        nonlocal h0, h1, w, w2, m2w, last_z
        (h0, h1), w, last_z = hat, weight, None
        w2, m2w = 2.0 * w, -2.0 * w

    def slack_values(z):
        nonlocal last_z, last_s, last_log
        key = tuple(z)
        if key != last_z:
            last_z, last_s, last_log = key, (*slacks(*key), cap - key[3]), None
        return last_s

    def at(z):
        """The log-sum of the slacks at z, which it leaves in last_s."""
        nonlocal last_log
        slack_values(z)
        if last_log is None:
            last_log = _log_sum(last_s)
        return last_log

    def objective(x0, x1, x2, y):
        e0, e1 = x0 - h0, x1 - h1
        return y - w * (e0 * e0 + e1 * e1)

    def newton(x0, x1, t, p, l1, l2, l3, v, q):
        """(r, dz) of the assembly at z = (x0, x1, ...), with p the partials
        there, l1, l2 and l3 the lam of the curved slacks, and v and q in
        the program's eight places. dz is None when a pivot is not
        positive."""
        f1, f1_11, f2_0, f2_2, f2_00, f2_02, f2_22, g, g_00 = p
        v1, v2, v3, vb0, vc0, vb1, vb2, v7 = v
        q1, q2, q3, qb0, qc0, qb1, qb2, q7 = q
        r = (
            t * (m2w * (x0 - h0)) + q2 * f2_0 + q3 * g + qb0 - qc0,
            t * (m2w * (x1 - h1)) + q1 * f1 + qb1,
            q2 * f2_2 - q3 + qb2,
            t - q1 - q2 - q7,
        )
        tw = t * w2
        a00 = tw - l2 * f2_00 + v2 * f2_0 * f2_0 - l3 * g_00 + v3 * g * g + vb0 + vc0
        a11 = tw - l1 * f1_11 + v1 * f1 * f1 + vb1
        a22 = v2 * f2_2 * f2_2 - l2 * f2_22 + v3 + vb2
        a33 = v1 + v2 + v7
        # The cross terms are (x0, x2), (x0, y), (x1, y) and (x2, y).
        a02 = v2 * f2_0 * f2_2 - l2 * f2_02 - v3 * g
        return r, _newton_dx(r, a00, a11, a22, a33, a02, -v2 * f2_0, -v1 * f1, -v2 * f2_2)

    def eval_value(z, t):
        log_sum = at(z)
        return log_sum if log_sum == -inf else t * objective(*z) + log_sum

    def eval_full(z, t):
        log_sum = at(z)
        if log_sum == -inf:
            return log_sum, None, None
        x0, x1, x2, y = z
        phi = t * objective(x0, x1, x2, y) + log_sum
        if not isfinite(phi):
            return phi, None, None
        c1, c2, c3, c4, c5, c6, c7 = last_s
        i1, i2, i3, i4, i5, i6, i7 = (1.0 / c1, 1.0 / c2, 1.0 / c3, 1.0 / c4, 1.0 / c5, 1.0 / c6,
                                      1.0 / c7)
        inv = eight((i1, i2, i3, i4, i5, i6, i7, 0.0))
        v = eight((i1 * i1, i2 * i2, i3 * i3, i4 * i4, i5 * i5, i6 * i6, i7 * i7, 0.0))
        grad, dx = newton(x0, x1, t, partials(x0, x1, x2), i1, i2, i3, v, inv)
        return phi, grad, dx

    def direction(x0, x1, x2, c, t, l1, l2, l3, l4, l5, l6, l7, s1, s2, s3, s4, s5, s6, s7):
        """step at z = (x0, x1, x2, y), with c the slacks there, duals l1 ...
        l7 and slack variables s1 ... s7, as one flat tuple (*dz, *ds,
        *dlam); the rho_i = (1 - lam_i c_i)/s_i are r1 ... r7."""
        c1, c2, c3, c4, c5, c6, c7 = c
        v1, v2, v3, v4, v5, v6, v7 = l1 / s1, l2 / s2, l3 / s3, l4 / s4, l5 / s5, l6 / s6, l7 / s7
        r1, r2, r3 = (1.0 - l1 * c1) / s1, (1.0 - l2 * c2) / s2, (1.0 - l3 * c3) / s3
        r4, r5 = (1.0 - l4 * c4) / s4, (1.0 - l5 * c5) / s5
        r6, r7 = (1.0 - l6 * c6) / s6, (1.0 - l7 * c7) / s7
        p = partials(x0, x1, x2)
        dz = newton(x0, x1, t, p, l1, l2, l3, eight((v1, v2, v3, v4, v5, v6, v7, 0.0)),
                    eight((l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5, l6 + r6, l7 + r7, 0.0)))[1]
        if dz is None:
            return None
        # The slacks' derivatives along dz, in the order of c.
        f1, _, f2_0, f2_2, _, _, _, g, _ = p
        dz0, dz1, dz2, dz3 = dz
        d1, d2, d3, d4, d5, d6, d7 = seven((f1 * dz1 - dz3, f2_0 * dz0 + f2_2 * dz2 - dz3,
                                            g * dz0 - dz2, dz0, -dz0, dz1, dz2, -dz3))
        return (dz0, dz1, dz2, dz3,
                c1 - s1 + d1, c2 - s2 + d2, c3 - s3 + d3, c4 - s4 + d4, c5 - s5 + d5,
                c6 - s6 + d6, c7 - s7 + d7,
                r1 - v1 * d1, r2 - v2 * d2, r3 - v3 * d3, r4 - v4 * d4, r5 - v5 * d5,
                r6 - v6 * d6, r7 - v7 * d7)

    def step(z, t, lam, s):
        x0, x1, x2, _ = z
        out = direction(x0, x1, x2, slack_values(z), t, *lam, *s)
        return None if out is None else (out[:4], out[4:11], out[11:])

    def warm_point(z, s, t, max_steps):
        """A point that passes the center test at t (see _PD_CENTERED), by
        infeasible-start primal-dual steps at t from z with slack
        variables s and duals 1/s. None when max_steps steps do not get
        there, a pivot is not positive, or the block's functions are
        undefined at an iterate."""
        nonlocal last_z, last_s, last_log
        x0, x1, x2, y = z
        s1, s2, s3, s4, s5, s6, s7 = s
        l1, l2, l3, l4, l5, l6, l7 = (1.0 / s1, 1.0 / s2, 1.0 / s3, 1.0 / s4, 1.0 / s5, 1.0 / s6,
                                      1.0 / s7)
        lo, hi = 1.0 - _PD_CENTERED, 1.0 + _PD_CENTERED
        for k in range(max_steps + 1):
            # Each iterate is evaluated once, as the program's last evaluation.
            last_z = z = (x0, x1, x2, y)
            last_s = c = (*slacks(x0, x1, x2, y), cap - y)
            last_log = None
            # A slack that is -inf or a leading NaN: outside the domain of the
            # block's functions, where the partials are undefined.
            if not min(c) > -inf:
                return None
            # |lam_i c_i - 1| < _PD_CENTERED; lam stays positive, so every
            # slack is then positive too.
            c1, c2, c3, c4, c5, c6, c7 = c
            if (lo < l1 * c1 < hi and lo < l2 * c2 < hi and lo < l3 * c3 < hi and lo < l4 * c4 < hi
                    and lo < l5 * c5 < hi and lo < l6 * c6 < hi and lo < l7 * c7 < hi):
                return z
            if k == max_steps:
                return None
            out = direction(x0, x1, x2, c, t, l1, l2, l3, l4, l5, l6, l7, s1, s2, s3, s4, s5, s6, s7)
            if out is None:
                return None
            dz0, dz1, dz2, dz3, d1, d2, d3, d4, d5, d6, d7, e1, e2, e3, e4, e5, e6, e7 = out
            # The longest step that keeps s and lam positive, cut back.
            room = inf
            if d1 < 0.0 and -s1 / d1 < room: room = -s1 / d1
            if d2 < 0.0 and -s2 / d2 < room: room = -s2 / d2
            if d3 < 0.0 and -s3 / d3 < room: room = -s3 / d3
            if d4 < 0.0 and -s4 / d4 < room: room = -s4 / d4
            if d5 < 0.0 and -s5 / d5 < room: room = -s5 / d5
            if d6 < 0.0 and -s6 / d6 < room: room = -s6 / d6
            if d7 < 0.0 and -s7 / d7 < room: room = -s7 / d7
            if e1 < 0.0 and -l1 / e1 < room: room = -l1 / e1
            if e2 < 0.0 and -l2 / e2 < room: room = -l2 / e2
            if e3 < 0.0 and -l3 / e3 < room: room = -l3 / e3
            if e4 < 0.0 and -l4 / e4 < room: room = -l4 / e4
            if e5 < 0.0 and -l5 / e5 < room: room = -l5 / e5
            if e6 < 0.0 and -l6 / e6 < room: room = -l6 / e6
            if e7 < 0.0 and -l7 / e7 < room: room = -l7 / e7
            a = min(1.0, _PD_STEP_FRACTION * room)
            x0, x1, x2, y = x0 + a * dz0, x1 + a * dz1, x2 + a * dz2, y + a * dz3
            s1, s2, s3, s4, s5, s6, s7 = (s1 + a * d1, s2 + a * d2, s3 + a * d3, s4 + a * d4,
                                          s5 + a * d5, s6 + a * d6, s7 + a * d7)
            l1, l2, l3, l4, l5, l6, l7 = (l1 + a * e1, l2 + a * e2, l3 + a * e3, l4 + a * e4,
                                          l5 + a * e5, l6 + a * e6, l7 + a * e7)

    return _Program(eval_full, eval_value, step, warm_point, slack_values, objective, refresh)


class Block:
    """A barrier block of one run: its program; refresh(cold, ...), which
    puts one solve's tangent coefficients, w and hat into it and returns
    the solve's start (see `_solve`), or None when the block is infeasible
    at the incumbent, cold telling whether the steps start there; the
    labels of (x0, x1, x2) in a solution's point; the rate unit R0
    (`rate_scale`); and warm, the final point and slacks (z, s) of its last
    solve when that was optimal, else (), from which its next solve
    starts."""

    __slots__ = ("program", "refresh", "names", "R0", "warm")

    def __init__(self, program: _Program, refresh: Callable, names: tuple, R0: float):
        self.program, self.refresh, self.names, self.R0 = program, refresh, names, R0
        self.warm = ()


def _solve(block, *incumbent) -> SubproblemSolution:
    """Refresh block at the incumbent and solve its program, or report it
    infeasible there; y is the rate in units of block.R0, and block.names
    label (x0, x1, x2) in the returned point.

    Primal-dual steps (`_Program.warm_point`) at t_final = m/TOL_SUB reach
    a point near the center there, and the barrier centers from it
    (`barrier.maximize`). The steps start from block.warm, the final point
    z and slacks s of the block's last solve when that was optimal. Without
    a warm start, or when the warm steps or that centering fail, the steps
    start cold from z0 = (*start, y0), with start = (x0, x1, x2) the
    block's incumbent, as refresh returns it, and y0 = min(F1, F2,
    ETA_CAP_FACTOR) there, and with the slacks at z0, each raised to at
    least _S_FLOOR, as slack variables; the block is refreshed for a cold
    start first. When the cold steps fail too, the solve returns z0
    unmoved, as "max-iter". The solve leaves its own final point and
    slacks in block.warm when it is optimal, else ().
    """
    warm, block.warm = block.warm, ()
    start = block.refresh(not warm, *incumbent)
    if start is None:
        return SubproblemSolution({}, -math.inf, "infeasible")
    program = block.program
    m = 7  # slacks: the block's six and the cap
    t_final = m / TOL_SUB
    z = program.warm_point(warm[0], warm[1], t_final, _PD_MAX_STEPS) if warm else None
    if z is not None:
        z, ok = barrier.maximize(program.eval_full, program.eval_value, z, m, TOL_SUB)
    if z is None or not ok:
        if warm:
            block.refresh(True, *incumbent)  # the coefficients of a cold start
        z = (*start, min(*program.slacks((*start, 0.0))[:2], ETA_CAP_FACTOR))
        s = [max(c, _S_FLOOR) for c in program.slacks(z)]
        z_pd = program.warm_point(z, s, t_final, _PD_COLD_STEPS)
        z, ok = (z, False) if z_pd is None else barrier.maximize(
            program.eval_full, program.eval_value, z_pd, m, TOL_SUB)
    (n0, n1, n2), (x0, x1, x2, y), R0 = block.names, z, block.R0
    point = {n0: x0, n1: x1, n2: x2, "eta": y * R0}
    objective = program.objective(x0, x1, x2, y) * R0
    if not ok:
        return SubproblemSolution(point, objective, "max-iter")
    block.warm = (tuple(z), program.slacks(z))
    return SubproblemSolution(point, objective, "optimal")


def placement_block(p: SystemParams, fit: SigmoidFit) -> Block:
    """The placement block of a run on (p, fit), for `solve_placement`."""
    R0, gamma_min = rate_scale(p, fit), min_snr_threshold_db(fit)
    H, W, mu, beta, a1, a2, c1 = p.H, p.W, p.mu, p.beta, fit.a1, fit.a2, fit.c1
    H2, half_beta, K_R0, margin = H * H, beta / 2.0, fit.K * R0, DIST_MARGIN_FRAC * p.D
    hb1, hb2, bm1, m_c1 = half_beta - 1.0, half_beta - 2.0, beta - 1.0, -c1
    u_margin = path_factor(p, margin)  # u at the cold start's lowest d_ru
    # The tangent coefficients of the solve at hand, set by refresh, and
    # what the last slacks call computed for partials (base and v).
    u_t = r_t = r_u = v_t = sig_t = sig_v = a1c = b2 = q3 = cap_peak = f1_c = f2_c = g_00 = 0.0
    base = v = 0.0

    def slacks(d_br, d_ru, gamma, y):
        nonlocal base, v
        base, v = d_ru * d_ru + H2, logistic_v(fit, gamma)
        return (
            a1c * (r_t + r_u * (base ** half_beta - u_t)) - y,
            b2 * (a1 + a2 * (sig_t + sig_v * (v - v_t))) - y,
            cap_peak - q3 * d_br * d_br - gamma,
            d_br,
            d_ru,
            gamma - gamma_min,
        )

    # F1 = a1c * (r_t + r_u * (u(d_ru) - u_t)) with u = (d_ru^2 + H^2)^(beta/2),
    # F2 = b2 * (a1 + a2 * logistic tangent(gamma)), G = cap_peak - q3 * d_br^2.
    # The program calls partials at its last slacks point only, so they
    # take d_ru^2 + H^2 and logistic_v(gamma) from that call.
    def partials(d_br, d_ru, gamma):
        f2_2 = f2_c * v
        return (f1_c * d_ru * base ** hb1, f1_c * base ** hb2 * (bm1 * d_ru * d_ru + H2),
                0.0, f2_2, 0.0, 0.0, m_c1 * f2_2, g_00 * d_br, g_00)

    program = _program(slacks, partials, 1)  # no upper bound on d_br

    def refresh(cold, lp, alpha_ru, aux, lam, nu):
        nonlocal u_t, r_t, r_u, v_t, sig_t, sig_v, a1c, b2, q3, cap_peak, f1_c, f2_c, g_00
        u_t, r_t, r_u = rate_ru_coeffs(p, lp, alpha_ru)
        at_margin = r_t + r_u * (u_margin - u_t)
        if not (math.isfinite(at_margin) and (at_margin >= 0.0 or not cold)):
            # The spectral efficiency log2(1 + snr) is >= 0, but its tangent
            # at the incumbent is negative or not finite at the cold start's
            # lowest d_ru: at H = 0 an incumbent d_ru near 0 leaves u_t near
            # 0 and the slope -inf or about -1e148. The tangent at that d_ru
            # is finite, and as a tangent of a function convex in u it is
            # still a global minorant.
            u_t, r_t, r_u = rate_ru_coeffs(p, replace(lp, d_ru=margin), alpha_ru)
        v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
        y_t, _, l_y = log_path_coeffs(lp, H)
        a1c = alpha_ru * W / R0
        b2 = lp.alpha_br * W * mu / K_R0
        # With the log-path tangent the SNR ceiling is a downward parabola in
        # d_br, cap_peak - q3 * d_br^2, equal to lp.gamma_br_db at lp.d_br.
        q3 = 5.0 * beta * l_y
        cap_peak = lp.gamma_br_db + q3 * y_t
        if cap_peak <= gamma_min + 1e-12:
            return None
        f1_c, f2_c, g_00 = a1c * r_u * beta, -b2 * a2 * sig_v * c1, -2.0 * q3
        program.refresh(nu / (2.0 * lam * R0), aux)
        return lp.d_br, max(lp.d_ru, margin), lp.gamma_br_db

    return Block(program, refresh, ("d_br", "d_ru", "gamma_br_db"), R0)


def solve_placement(
    block: Block,
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
    threshold, and d >= 0. The ceiling is anchored on lp.gamma_br_db, which
    must be the exact SNR at (lp.d_br, lp.alpha_br). Infeasible when no
    d_br admits the threshold at the fixed split, which signals that the
    bandwidth block must move first.
    block is the run's `placement_block`; the solve starts from its warm
    start when it can (`_solve`).
    """
    return _solve(block, lp, alpha_ru, aux, lam, nu)


def bandwidth_block(p: SystemParams, fit: SigmoidFit,
                    alpha_floor: float = DEFAULT_ALPHA_FLOOR) -> Block:
    """The bandwidth block of a run on (p, fit, alpha_floor), for
    `solve_bandwidth`."""
    R0 = rate_scale(p, fit)
    gamma_min = min_snr_threshold_db(fit)
    wr, a1, a2, c1 = p.W / R0, fit.a1, fit.a2, fit.c1
    q2 = p.W * p.mu / (4.0 * fit.K * R0)
    f2_00, m_wr, m_a2, m_c1 = -2.0 * q2, -wr, -a2, -c1
    # The tangent coefficients of the solve at hand, set by refresh, and
    # what the last slacks call computed for partials (v and l1p).
    c_ru = x_t = sq_t = sq_x = v_t = sig_t = sig_v = a_t = cap_a = g_t = a_max = 0.0
    f1_11c = g_c = g_2c = v = l1p = 0.0

    def slacks(a_br, a_ru, S, y):
        nonlocal v, l1p
        v = logistic_v(fit, g_t + cap_a * (a_br - a_t))  # at the SNR ceiling
        l1p = math.log1p(c_ru / a_ru) if a_ru > 0.0 else math.nan
        return (
            wr * a_ru * l1p / _LN2 - y if a_ru > 0.0 else -math.inf,
            q2 * (sq_t + sq_x * (a_br + S - x_t) - (a_br - S) * (a_br - S)) - y,
            a1 + a2 * (sig_t + sig_v * (v - v_t)) - S,
            a_br - alpha_floor,
            a_max - a_br,
            a_ru - alpha_floor,
        )

    # F1 = wr * a_ru * log2(1 + c_ru/a_ru), F2 = q2 * (square tangent(a_br + S)
    # - (a_br - S)^2), G = a1 + a2 * logistic tangent(SNR ceiling(a_br)), whose
    # G'' = -c1 * cap_a * G'. The program calls partials at its last slacks
    # point only, so they take logistic_v and log1p(c_ru/a_ru) from that call.
    def partials(a_br, a_ru, S):
        ac, d2 = a_ru + c_ru, 2.0 * (a_br - S)
        g = g_c * v
        return (wr * (l1p - c_ru / ac) / _LN2, f1_11c / (a_ru * ac * ac * _LN2),
                q2 * (sq_x - d2), q2 * (sq_x + d2), f2_00, -f2_00, f2_00, g, g_2c * g)

    program = _program(slacks, partials, 3)  # no lower bound on S

    def refresh(cold, lp, aux, lam):
        nonlocal c_ru, x_t, sq_t, sq_x, v_t, sig_t, sig_v, a_t, cap_a, g_t, a_max, f1_11c, g_c, g_2c
        c_ru = snr_lin(p, p.P_r, lp.d_ru, 1.0)  # SNR times alpha_ru
        x_t, sq_t, sq_x = square_coeffs(lp)
        v_t, sig_t, sig_v = logistic_coeffs(fit, lp)
        a_t, _, cap_a = snr_cap_coeffs(lp)
        g_t = lp.gamma_br_db
        # SNR ceiling, affine in alpha_br: g_t + cap_a * (alpha_br - a_t).
        a_max = a_t + (gamma_min - g_t) / cap_a  # the ceiling meets gamma_min
        if a_max <= alpha_floor:
            return None
        f1_11c, g_c, g_2c = m_wr * c_ru * c_ru, m_a2 * sig_v * c1 * cap_a, m_c1 * cap_a
        program.refresh(1.0 / (2.0 * lam * R0), aux)
        # The incumbent alpha_ru is not part of the expansion point, so the
        # auxiliary copy seeds that coordinate.
        return lp.alpha_br, max(aux[1], 2.0 * alpha_floor), lp.similarity

    return Block(program, refresh, ("alpha_br", "alpha_ru", "S"), R0)


def solve_bandwidth(
    block: Block,
    lp: LocalPoint,
    aux: tuple[float, float],
    lam: float,
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
    block is the run's `bandwidth_block`, as in `solve_placement`.
    """
    return _solve(block, lp, aux, lam)


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
