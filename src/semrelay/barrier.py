"""Log-barrier Newton centering for the small convex block subproblems.

`maximize` takes one point and centers there once: it maximizes
t*f(x) + sum(log(-g_i(x))) at the single barrier parameter t = m/gap by
damped Newton, so that the duality measure m/t of the returned center
meets the requested gap (Boyd & Vandenberghe, *Convex Optimization*,
§11.3). It follows no path. The block programs reach a point near that
center first, by infeasible-start primal-dual steps at the same t
(`warm_point` of `subproblems._program`, built once per run and block
by `placement_block` and `bandwidth_block` and refreshed for each solve,
from the block's warm start or cold), and solve its Newton system, whose
sparsity they know, in closed form. Everything is deterministic;
no randomness, no iteration-order ambiguity.

Problems plug in through a single fused callback so the per-step cost stays
a few microseconds. Points are sequences of plain floats:

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
provided its results depend on its arguments alone. The block programs
keep one point: its slacks, their log-sum, and the subexpressions that
the slacks share with the partials of eval_full's Newton system.
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


def maximize(eval_full, eval_value, x, n_constraints, gap):
    """Center at t = n_constraints/gap by damped Newton from x, which is
    not modified.

    Returns (x, converged): x a list of floats, the last iterate;
    converged means the Newton decrement met its target within
    _MAX_NEWTON steps. An iterate outside the domain, or without positive
    pivots, ends the centering there unconverged, so a start outside the
    domain comes back unchanged.
    """
    t, x = n_constraints / gap, list(x)
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
