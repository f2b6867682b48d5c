"""Log-barrier Newton solver for the small convex block subproblems.

Each block program has four variables and seven smooth constraints, so a
path-following method on the primal barrier is enough: maximize
t*f(x) + sum(log(-g_i(x))) by damped Newton, then grow t by one fixed
factor, _GROWTH, until the duality measure m/t drops below the requested
gap (Boyd & Vandenberghe, *Convex Optimization*, §11.3). The Newton
system is sparse, and `subproblems._solve` solves it in closed form.
Everything is deterministic; no randomness, no iteration-order ambiguity.

A solve returns the centers it passed on the way, and the next solve of a
nearby problem may take them as its warm path: it starts at the highest
stage whose old center is still nearly centered for the new problem, and
skips the stages below. With an empty path it starts cold at t = _T0.

The duals of a center carry over to the next stage. At a center for t the
duals are 1/s_i for the slacks s_i; after t grows by F they are F/s_i on
the new scale, and the primal-dual Newton step with duals k/s_i solves
(t*A_f + k*B) dx = grad, where t*A_f and B are the objective's and the
barrier's parts of -H. So the first step after a growth takes k = F, and
after an accepted step of length a, k <- 1 + (k - 1)(1 - a), the dual
update of the linear model; cold starts and warm starts take k = 1, the
primal step. A centering stops when k * grad.dx <= _DECREMENT_TOL: A_f is
positive semidefinite, so t*A_f + k*B <= k*(t*A_f + B) for k >= 1 and the
rule bounds the primal Newton decrement by the same tolerance.

Problems plug in through a single fused callback so the per-step cost stays
a few microseconds. Points are sequences of plain floats, and the problem
solves its Newton system, whose sparsity it knows; both block programs do
so in `subproblems._solve`:

    eval_full(x, t)  -> (phi, grad, dx), where dx solves
                        (t*A_f + k*B) dx = grad at x (None when a pivot is
                        not positive), k is t.k when t is a `Scaled` and 1
                        for a plain float, when the matrix is -H, the
                        Hessian of phi; grad and dx are not read when phi
                        is not finite
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
# A center of the warm path starts a solve when its Newton decrement for
# the new problem is at most this (lambda^2 <= 1, inside the region where
# damped Newton takes few steps to converge).
_WARM_DECREMENT = 1.0


class Scaled(float):
    """A barrier parameter t that carries the dual scale k of the Newton
    step to eval_full; it is t in every arithmetic use."""

    __slots__ = ("k",)

    def __new__(cls, t, k):
        self = super().__new__(cls, t)
        self.k = k
        return self


def _newton(eval_full, eval_value, x, t, k):
    """Center at fixed t with the duals carried at scale k. Returns
    (x, converged)."""
    for _ in range(_MAX_NEWTON):
        phi, grad, dx = eval_full(x, t if k == 1.0 else Scaled(t, k))
        # Outside the domain the line search cannot tell better from worse,
        # and without positive pivots there is no ascent direction.
        if not math.isfinite(phi) or dx is None:
            return x, False
        decrement = sum(map(mul, grad, dx))
        if k * decrement <= _DECREMENT_TOL:
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
        k = 1.0 + (k - 1.0) * (1.0 - s)
    return x, False


def _warm_start(eval_full, path):
    """The (t, x) of the highest center of path that is nearly centered for
    the problem of eval_full, x a list, or None."""
    for t, x in reversed(path):
        phi, grad, dx = eval_full(x, t)
        if math.isfinite(phi) and dx is not None and sum(map(mul, grad, dx)) <= _WARM_DECREMENT:
            return t, list(x)
    return None


def maximize(eval_full, eval_value, x0, n_constraints, gap, path=()):
    """Follow the central path until the duality measure meets `gap`.

    path holds (t, x) centers of an earlier, nearby solve in increasing t,
    as this function returns them. The solve starts at the highest of them
    that is nearly centered for this problem (Newton decrement
    lambda^2 <= _WARM_DECREMENT), and otherwise cold at (x0, _T0). x0 must
    then be strictly feasible; one outside the domain comes back unchanged,
    unconverged. path is not modified.

    Returns (x, converged, centers): x a list of floats; converged means
    every centering succeeded and m/t_final <= gap; centers holds the
    (t, x) of each converged centering below t_final, in increasing t, x a
    tuple. The barrier parameter grows by the one factor _GROWTH per stage
    up to t_final = m/gap (a start at or above t_final is centered once),
    and each stage after a converged one starts with that center's duals,
    at the scale k of the growth.
    """
    t_final = n_constraints / gap
    t, x = _warm_start(eval_full, path) or (min(_T0, t_final), [float(v) for v in x0])
    k = 1.0
    ok_all = True
    centers = []
    while True:
        x, ok = _newton(eval_full, eval_value, x, t, k)
        ok_all = ok_all and ok
        if t >= t_final:
            break
        if ok:
            centers.append((t, tuple(x)))
        t_next = min(t * _GROWTH, t_final)
        # The duals of a center carry over; those of a failed centering do not.
        k = t_next / t if ok else 1.0
        t = t_next
    return x, ok_all, tuple(centers)
