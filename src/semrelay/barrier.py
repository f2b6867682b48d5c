"""Log-barrier Newton solver for the small convex block subproblems.

The block programs have at most five variables and about ten smooth
constraints, so a primal path-following method is enough: maximize
t*f(x) + sum(log(-g_i(x))) by damped Newton, then grow t by a fixed factor
until the duality measure m/t drops below the requested gap. The Newton
system is sparse, and each block solves it in closed form. Everything is
deterministic; no randomness, no iteration-order ambiguity.

Problems plug in through a single fused callback so the per-step cost stays
a few microseconds. Points are sequences of plain floats, and each problem
solves its own Newton system, whose sparsity it knows:

    eval_full(x, t)  -> (phi, grad, dx), where dx solves (-H) dx = grad for
                        the Hessian H of phi at x; dx is None when a pivot
                        of -H is not positive (grad and dx are not read
                        when phi is not finite)
    eval_value(x, t) -> phi, or -inf when x is outside the domain
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
# Barrier parameter of the first centering.
_T0 = 10.0


def _newton(eval_full, eval_value, x, t):
    """Center at fixed t. Returns (x, converged, steps)."""
    for step in range(_MAX_NEWTON):
        phi, grad, dx = eval_full(x, t)
        # Outside the domain the line search cannot tell better from worse,
        # and without positive pivots there is no ascent direction.
        if not math.isfinite(phi) or dx is None:
            return x, False, step
        decrement = sum(map(mul, grad, dx))
        if decrement <= _DECREMENT_TOL:
            # Newton direction of a concave phi always has decrement >= 0;
            # tiny values mean we are centered.
            return x, True, step
        s = 1.0
        for _ in range(_MAX_BACKTRACK):
            cand = [xi + s * di for xi, di in zip(x, dx)]
            val = eval_value(cand, t)
            if val >= phi + _BACKTRACK_SLOPE * s * decrement:
                break
            s *= _BACKTRACK_SHRINK
        else:
            return x, False, step
        x = cand
    return x, False, _MAX_NEWTON


def maximize(eval_full, eval_value, x0, n_constraints, gap):
    """Follow the central path until the duality measure meets `gap`.

    x0 must be strictly feasible; one outside the domain comes back
    unchanged, unconverged. Returns (x, converged), x a list of floats,
    where converged means every centering succeeded and m/t_final <= gap.
    The barrier parameter grows by 10 per stage, or by 100 after stages
    that converge in a couple of Newton steps (a warm start near the path
    needs no slow walk through the early stages).
    """
    t_final = n_constraints / gap
    t = min(_T0, t_final)
    x = [float(v) for v in x0]
    ok_all = True
    while True:
        x, ok, steps = _newton(eval_full, eval_value, x, t)
        ok_all = ok_all and ok
        if t >= t_final:
            break
        factor = 100.0 if (ok and steps <= 2) else 10.0
        t = min(t * factor, t_final)
    return x, ok_all
