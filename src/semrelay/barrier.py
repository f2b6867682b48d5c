"""Log-barrier Newton solver for the small convex block subproblems.

Each block program has four variables and seven smooth constraints, so a
path-following method on the primal barrier is enough: maximize
t*f(x) + sum(log(-g_i(x))) by damped Newton, then grow t by one fixed
factor, _GROWTH, until the duality measure m/t drops below the requested
gap (Boyd & Vandenberghe, *Convex Optimization*, §11.3). The Newton
system is sparse, and `subproblems._program` solves it in closed form.
Everything is deterministic; no randomness, no iteration-order ambiguity.

A solve of a nearby problem may skip the path: given a warm point, one
near the center at t_final = m/gap, it centers there straight away, and
starts cold at t = _T0 from its strictly feasible start only when that
centering does not converge. The block programs find such a point with a
few primal-dual steps from the final point of the block's previous solve
(`warm_point` of `subproblems._program`). The cold start comes as a
function, which the solve calls only when it starts cold, so a solve that
centers from its warm point never builds it.

Problems plug in through a single fused callback so the per-step cost stays
a few microseconds. Points are sequences of plain floats, and the problem
solves its Newton system, whose sparsity it knows; both block programs do
so in `subproblems._program`:

    eval_full(x, t)  -> (phi, grad, dx), where dx solves -H dx = grad at x,
                        H the Hessian of phi (None when a pivot is not
                        positive); grad and dx are not read when phi is
                        not finite
    eval_value(x, t) -> phi, or -inf when x is outside the domain

phi and grad are those of t*f + sum(log s_i) for the value of t alone.

The line search halves the step from s = 1 until the Armijo test passes; a
trial outside the domain fails it at -inf. It calls eval_value once per
trial, and the next Newton step calls eval_full at the accepted trial, so a
problem may keep the work of its last evaluation for the next call,
provided its results depend on its arguments alone.
"""

from __future__ import annotations

import math
from operator import mul

# Newton decrement target; lambda <= 0.05 leaves a centering error far below
# the m/t duality measure.
_DECREMENT_TOL = 2.5e-3  # lambda^2 threshold
_MAX_NEWTON = 60
_BACKTRACK_SLOPE = 0.25
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACK = 60
# Barrier parameter of the first centering of a cold start, and its growth
# per stage.
_T0 = 10.0
_GROWTH = 100.0


def _newton(eval_full, eval_value, x, t):
    """Center at fixed t. Returns (x, converged)."""
    for _ in range(_MAX_NEWTON):
        phi, grad, dx = eval_full(x, t)
        # Outside the domain the line search cannot tell better from worse,
        # and without positive pivots there is no ascent direction.
        if not math.isfinite(phi) or dx is None:
            return x, False
        decrement = sum(map(mul, grad, dx))
        if decrement <= _DECREMENT_TOL:
            # Newton direction of a concave phi always has decrement >= 0;
            # tiny values mean we are centered.
            return x, True
        s = 1.0
        for _ in range(_MAX_BACKTRACK):
            cand = [xi + s * di for xi, di in zip(x, dx)]
            if eval_value(cand, t) >= phi + _BACKTRACK_SLOPE * s * decrement:
                break
            s *= _BACKTRACK_SHRINK
        else:
            return x, False
        x = cand
    return x, False


def maximize(eval_full, eval_value, start, n_constraints, gap, warm=None):
    """Follow the central path until the duality measure meets `gap`.

    warm, when given, is a point near the center at t_final = m/gap, such
    as the final point of a nearby problem's solve moved towards this one;
    the solve centers at t_final from it. Without it, or when that
    centering does not converge, the solve starts cold at (start(), _T0)
    and grows t by the one factor _GROWTH per stage up to t_final; start
    is called only then. Its point must be strictly feasible; one outside
    the domain comes back unchanged, unconverged. Neither start is
    modified.

    Returns (x, converged): x a list of floats; converged means every
    centering of the returned solve succeeded and m/t_final <= gap.
    """
    t_final = n_constraints / gap
    if warm is not None:
        x, ok = _newton(eval_full, eval_value, list(warm), t_final)
        if ok:
            return x, True
    t, x = min(_T0, t_final), [float(v) for v in start()]
    ok_all = True
    while True:
        x, ok = _newton(eval_full, eval_value, x, t)
        ok_all = ok_all and ok
        if t >= t_final:
            return x, ok_all
        t = min(t * _GROWTH, t_final)
