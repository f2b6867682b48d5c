"""Two-layer driver: block-coordinate ascent inside, penalty schedule outside.

The inner layer cycles placement -> bandwidth -> auxiliary at a fixed
penalty coefficient until the penalized objective stalls; the outer layer
shrinks the coefficient geometrically, which tightens the two penalized sum
equalities until the maximum violation drops below the target accuracy.

After every block solve the SNR and similarity scalars are recomputed from
the primal variables (their relaxed constraints hold with equality at block
optima), so each incumbent is a genuine operating point and the recorded
objective traces are comparable across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from semrelay.bounds import LocalPoint
from semrelay.model import (
    DEFAULT_ALPHA_FLOOR,
    DesignPoint,
    SigmoidFit,
    SystemParams,
    bit_rate_ru,
    min_snr_threshold_db,
    semantic_bit_rate,
    semantic_similarity,
    snr_br_db,
)
from semrelay.subproblems import (
    DIST_MARGIN_FRAC,
    ETA_CAP_FACTOR,
    rate_scale,
    solve_auxiliary,
    solve_bandwidth,
    solve_placement,
)

# Safety floor for the penalty coefficient. Termination at eps1 = 1e-8
# requires coefficients around 1e-14 to 1e-16 on realistic rate scales
# (the equality residual of each block is proportional to the coefficient
# times the local rate gradient), so the floor sits well below that.
LAMBDA_FLOOR = 1e-18


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs of the penalty schedule and the inner loop."""

    lambda0: float = 1000.0  # initial penalty coefficient
    c: float = 0.9  # per-phase shrink factor, in (0, 1)
    nu: float = 1e-4  # weight balancing distance vs bandwidth penalties
    eps1: float = 1e-8  # violation accuracy at termination
    inner_tol: float = 1e-6  # relative objective stall tolerance per cycle
    max_inner: int = 100  # cycle cap per phase
    max_outer: int = 500  # phase cap
    alpha_floor: float = DEFAULT_ALPHA_FLOOR

    def __post_init__(self):
        if not 0 < self.c < 1:
            raise ValueError("c must lie in (0, 1)")
        if not self.lambda0 > 0:
            raise ValueError("lambda0 must be positive")
        if not self.eps1 > 0:
            raise ValueError("eps1 must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be at least 1")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        if not 0 < self.alpha_floor < 0.5:
            raise ValueError("alpha_floor must lie in (0, 0.5)")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one penalty run."""

    best: DesignPoint | None
    zeta: float
    inner_iters: int
    outer_iters: int
    objective_trace: tuple  # one tuple of objective values per outer phase
    zeta_trace: tuple  # violation at the end of each outer phase
    status: str  # "converged" | "iteration-cap" | "infeasible"


def violation(d, alpha, aux, D: float) -> float:
    """Maximum equality-constraint violation, dimensionless.

    Bandwidth terms are absolute, distance terms are normalized by D so the
    metric is comparable to the termination accuracy.
    """
    (d_hat_br, d_hat_ru), (a_hat_br, a_hat_ru) = aux
    return max(
        abs(alpha[0] - a_hat_br),
        abs(alpha[1] - a_hat_ru),
        abs(d[0] - d_hat_br) / D,
        abs(d[1] - d_hat_ru) / D,
    )


def _has_feasible_point(p: SystemParams, fit: SigmoidFit, alpha_floor: float) -> bool:
    """Whether any point meets the similarity threshold.

    The received SNR falls in both d_br and alpha_br, so the best point is
    the corner d_br = 0, alpha_br = alpha_floor. With H = 0 its SNR is
    unbounded.
    """
    return p.H == 0 or bool(snr_br_db(p, 0.0, alpha_floor) >= min_snr_threshold_db(fit))


def _tighten(p, fit, d, alpha, eta_cap=float("inf")):
    """The incumbent at the primal variables: its expansion point, with SNR
    and similarity recomputed from them, and its rate.

    eta_cap mirrors the compactness box of the block subproblems: while the
    bandwidth fractions can exceed 1 under a weak penalty, the incumbent
    rate must stay inside the same feasible set the blocks optimize over,
    otherwise the ascent property of the cycle breaks. The cap is inactive
    at any converged point.
    """
    gamma = float(snr_br_db(p, d[0], alpha[0]))
    s = float(semantic_similarity(fit, gamma))
    eta = min(
        float(semantic_bit_rate(p, fit, alpha[0], s)),
        float(bit_rate_ru(p, d[1], alpha[1])),
        eta_cap,
    )
    return LocalPoint(d[0], d[1], alpha[0], gamma, s), eta


def _p3_objective(eta, d, alpha, aux, lam, nu):
    (d_hat, a_hat) = aux
    pen = (
        (alpha[0] - a_hat[0]) ** 2
        + (alpha[1] - a_hat[1]) ** 2
        + nu * (d[0] - d_hat[0]) ** 2
        + nu * (d[1] - d_hat[1]) ** 2
    )
    return eta - pen / (2.0 * lam)


def run(
    p: SystemParams,
    fit: SigmoidFit,
    cfg: PenaltyConfig = PenaltyConfig(),
    init: DesignPoint | None = None,
) -> SolveReport:
    """Maximize the effective bit rate over placement and bandwidth split.

    Returns a report whose best point satisfies both sum equalities exactly
    (final Euclidean projection) with the SNR recomputed from it. Status is
    "infeasible", with no best point, when no point meets the similarity
    threshold (an exact test, before any block solve) or when both blocks
    are infeasible at the incumbent; "converged" when the violation metric
    reached eps1; else "iteration-cap".
    """
    if not _has_feasible_point(p, fit, cfg.alpha_floor):
        return SolveReport(None, float("inf"), 0, 0, (), (), "infeasible")

    # The default start is the midpoint and the even split. Either start is
    # clamped: the relay stays off both ends, where the tangent expansions
    # of the path loss are undefined for H = 0.
    d, alpha = ((p.D / 2.0, p.D / 2.0), (0.5, 0.5)) if init is None else (
        (init.d_br, init.d_ru), (init.alpha_br, init.alpha_ru))
    margin = DIST_MARGIN_FRAC * p.D
    d = (max(d[0], margin), max(d[1], margin))
    alpha = (max(alpha[0], cfg.alpha_floor), max(alpha[1], cfg.alpha_floor))
    aux = (d, alpha)
    eta_cap = ETA_CAP_FACTOR * rate_scale(p, fit)
    # lp carries the incumbent to the blocks: d, alpha_br, and the SNR and
    # similarity recomputed from them.
    lp, eta = _tighten(p, fit, d, alpha, eta_cap)

    lam = cfg.lambda0
    traces = []
    zetas = []
    total_cycles = 0
    status = "iteration-cap"
    zeta = float("inf")

    for _outer in range(cfg.max_outer):
        phase = [_p3_objective(eta, d, alpha, aux, lam, cfg.nu)]
        prev_obj = phase[0]
        for _cycle in range(cfg.max_inner):
            pl = solve_placement(p, fit, lp, alpha[1], aux[0], lam, cfg.nu)
            if pl.status != "infeasible":
                d = (pl.point["d_br"], pl.point["d_ru"])
                lp, eta = _tighten(p, fit, d, alpha, eta_cap)
                phase.append(_p3_objective(eta, d, alpha, aux, lam, cfg.nu))

            bw = solve_bandwidth(p, fit, lp, aux[1], lam, cfg.alpha_floor)
            if bw.status != "infeasible":
                alpha = (bw.point["alpha_br"], bw.point["alpha_ru"])
                lp, eta = _tighten(p, fit, d, alpha, eta_cap)
                phase.append(_p3_objective(eta, d, alpha, aux, lam, cfg.nu))

            if pl.status == bw.status == "infeasible":
                status = "infeasible"
                break

            aux = solve_auxiliary(d, alpha, p.D)
            obj = _p3_objective(eta, d, alpha, aux, lam, cfg.nu)
            phase.append(obj)
            total_cycles += 1
            if abs(obj - prev_obj) <= cfg.inner_tol * max(1.0, abs(prev_obj)):
                break
            prev_obj = obj

        traces.append(tuple(phase))
        if status == "infeasible":
            break
        zeta = violation(d, alpha, aux, p.D)
        zetas.append(zeta)
        if zeta <= cfg.eps1:
            status = "converged"
            break
        lam = max(cfg.c * lam, LAMBDA_FLOOR)

    best = _finalize(p, fit, d, alpha, cfg)
    return SolveReport(
        None if status == "infeasible" else best,
        zeta, total_cycles, len(traces), tuple(traces), tuple(zetas), status,
    )


def _finalize(p, fit, d, alpha, cfg):
    """Project onto the sum equalities and rebuild the operating point."""
    (d_hat, a_hat) = solve_auxiliary(d, alpha, p.D)
    d_f = (max(d_hat[0], 0.0), max(d_hat[1], 0.0))
    a_f = (max(a_hat[0], cfg.alpha_floor), max(a_hat[1], 0.0))
    lp, eta = _tighten(p, fit, d_f, a_f)
    return DesignPoint(d_f[0], d_f[1], a_f[0], a_f[1], lp.gamma_br_db, eta)
