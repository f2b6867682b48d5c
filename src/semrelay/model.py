"""Physical-layer model of the semantic-relay text link.

Every formula here is a pure function of immutable inputs. All internal
arithmetic runs in linear units (watts, Hz); dB and dBm values appear only
at the API boundary and are converted on entry. The functions broadcast
over numpy arrays, which the grid searches of `baselines` rely on.

`lin_to_db`, `snr_br_db`, `semantic_similarity`, `shannon_rate` (so
`bit_rate_ru`) and `max_semantic_bandwidth` also have a plain-`math`
branch, taken when their inputs are floats, which returns a float. The
solver's incumbent (`penalty._tighten`, `_finalize`,
`_has_feasible_point`) and `effective_rate` run this branch, so a point's
rate and its floor test are the same float code wherever they are taken.
Arrays take the numpy branch, whose results can differ from it in the last
bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Single accuracy notion used for equality checks across the package.
TOL_EQ = 1e-8
# Solvers keep bandwidth fractions at or above this floor so the logarithms
# in the rate formulas stay finite.
DEFAULT_ALPHA_FLOOR = 1e-6

_LN2 = float(np.log(2.0))


def _require_finite(obj, plus_inf=()) -> None:
    """Raise ValueError naming the first field of the dataclass obj that is
    infinite or NaN, where the fields named in plus_inf may be +inf; the
    range checks alone let NaN and +inf through. (An int is finite, and
    math.isfinite cannot convert one beyond the float range.)"""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not (isinstance(value, int) or math.isfinite(value)
                or (value == math.inf and f.name in plus_inf)):
            raise ValueError(f"{f.name} must be finite")


def _require_int(obj, *names) -> None:
    """Raise ValueError naming the first of the fields names of obj that
    does not hold an integer (range and linspace take no float)."""
    for name in names:
        if not isinstance(getattr(obj, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer")


def db_to_lin(value_db):
    """dB -> linear power ratio."""
    return 10.0 ** (value_db / 10.0)


def lin_to_db(value):
    """Linear power ratio -> dB; 0 gives -inf on a float as on an array."""
    if isinstance(value, float):
        return 10.0 * math.log10(value) if value else -math.inf
    return 10.0 * np.log10(value)


def dbm_per_hz_to_w_per_hz(value_dbm_hz):
    """Noise spectral density in dBm/Hz -> W/Hz."""
    return 10.0 ** ((value_dbm_hz - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Physical and link constants of the two-hop system."""

    D: float = 100.0  # BS to user horizontal distance, m
    H: float = 10.0  # relay altitude, m
    rho0_db: float = -60.0  # channel power gain at 1 m reference, dB
    beta: float = 3.0  # path loss exponent
    P_b: float = 0.1  # BS transmit power, W
    P_r: float = 0.1  # relay transmit power, W
    N0_dbm_hz: float = -169.0  # noise power spectral density, dBm/Hz
    W: float = 1e6  # total system bandwidth, Hz
    mu: float = 40.0  # bits per word in plain text transmission

    def __post_init__(self):
        _require_finite(self)
        if not self.D > 0:
            raise ValueError("D must be positive")
        if not self.H >= 0:
            raise ValueError("H must be nonnegative")
        if not self.beta >= 2:
            raise ValueError("beta must be at least 2")
        if not self.W > 0:
            raise ValueError("W must be positive")
        if not self.P_b > 0:
            raise ValueError("P_b must be positive")
        if not self.P_r > 0:
            raise ValueError("P_r must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    # Computed once per instance, on first use; not fields, so ==, hash and
    # repr ignore them.
    @functools.cached_property
    def rho0_lin(self) -> float:
        return db_to_lin(self.rho0_db)

    @functools.cached_property
    def n0_w_hz(self) -> float:
        return dbm_per_hz_to_w_per_hz(self.N0_dbm_hz)


@dataclass(frozen=True)
class SigmoidFit:
    """Logistic fit of semantic similarity versus received SNR in dB.

    The coefficients depend on the number of semantic symbols per word K,
    so the two travel together. eps_bar is the minimum similarity the link
    must sustain; it must lie strictly inside the sigmoid's range
    (a1, a1 + a2), otherwise the equivalent SNR threshold is undefined.
    """

    a1: float = 0.3980
    a2: float = 0.5385
    c1: float = 0.2815
    c2: float = -1.3135
    K: float = 4.0  # average semantic symbols per word
    eps_bar: float = 0.9  # minimum acceptable semantic similarity

    def __post_init__(self):
        _require_finite(self)
        if not 0 < self.a1:
            raise ValueError("a1 must be positive")
        if not self.a2 > 0:
            raise ValueError("a2 must be positive")
        if not self.a1 + self.a2 <= 1:
            raise ValueError("a1 + a2 must not exceed 1")
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if not self.K > 0:
            raise ValueError("K must be positive")
        if not self.a1 < self.eps_bar < self.a1 + self.a2:
            raise ValueError("eps_bar must lie strictly between a1 and a1 + a2")


@dataclass(frozen=True)
class DesignPoint:
    """A candidate solution: placement, bandwidth split, SNR and rate."""

    d_br: float  # BS to relay horizontal distance, m
    d_ru: float  # relay to user horizontal distance, m
    alpha_br: float  # bandwidth fraction of the BS->relay hop
    alpha_ru: float  # bandwidth fraction of the relay->user hop
    gamma_br_db: float  # received SNR at the relay, dB
    eta: float  # effective bit rate, bits/s

    def __post_init__(self):
        # The SNR is +inf where the path loss vanishes: d_br = 0 at H = 0.
        _require_finite(self, plus_inf=("gamma_br_db",))
        if self.d_br < 0 or self.d_ru < 0:
            raise ValueError("distances must be nonnegative")
        if self.alpha_br < 0 or self.alpha_ru < 0:
            raise ValueError("bandwidth fractions must be nonnegative")


def path_factor(p: SystemParams, d):
    """(d^2 + H^2)^(beta/2), the distance part of the path loss."""
    return (d * d + p.H * p.H) ** (p.beta / 2.0)


def snr_lin(p: SystemParams, power, d, alpha):
    """Linear received SNR of a hop that sends at `power` over horizontal
    distance d in the bandwidth share alpha; the link budget of both hops.

    With H = 0 the path factor vanishes at d = 0 and the SNR is +inf, on
    floats as on arrays (where numpy's division gives the same limit). So
    it is where the denominator underflows to 0 although the path factor
    does not, as at d = 1e-155 with H = 0 and beta = 2.
    """
    u = path_factor(p, d)
    if isinstance(u, float) and u == 0.0:
        return math.inf
    den = u * alpha * p.W * p.n0_w_hz
    if isinstance(den, float) and den == 0.0:
        return math.inf
    return power * p.rho0_lin / den


def shannon_rate(p: SystemParams, power, d, alpha):
    """Shannon rate in bits/s of a bit hop sending at `power`.

    Returns 0 at alpha = 0, the continuous limit of x*log2(1 + c/x).
    log1p keeps full relative precision at the tiny SNRs reached when the
    allocated band is wide.
    """
    if isinstance(d, float) and isinstance(alpha, float):
        if not alpha > 0:
            return 0.0
        return alpha * p.W * math.log1p(snr_lin(p, power, d, alpha)) / _LN2
    alpha = np.asarray(alpha, dtype=float)
    # With every alpha > 0, as on the grids, np.where would return alpha and
    # out as they are. Elsewhere a positive alpha stands in for the others,
    # so that 0 * inf (alpha = 0 where the SNR is infinite) is not formed.
    starved = not np.all(alpha > 0)
    a = np.where(alpha > 0, alpha, 1.0) if starved else alpha
    out = a * p.W * np.log1p(snr_lin(p, power, d, a)) / _LN2
    out = np.where(alpha > 0, out, 0.0) if starved else out
    return float(out) if np.ndim(out) == 0 else out


def snr_br_db(p: SystemParams, d_br, alpha_br):
    """Received SNR at the relay in dB for the BS->relay hop.

    Raises ValueError when alpha_br is not positive: the SNR diverges at
    zero allocated bandwidth and callers are expected to clamp to a floor.
    """
    if (alpha_br <= 0 if isinstance(alpha_br, float)
            else np.any(np.asarray(alpha_br) <= 0)):
        raise ValueError("alpha_br must be positive")
    return lin_to_db(snr_lin(p, p.P_b, d_br, alpha_br))


def logistic_v(fit: SigmoidFit, gamma: float) -> float:
    """v = exp(-(c1*gamma + c2)) of the logistic term 1/(1 + v), on a
    scalar. The exponent is clamped at 700, which only a gamma far outside
    the barrier domain reaches, so that a block's slack there is negative
    instead of raising OverflowError. (A conditional, not max(): the blocks
    call this on every barrier evaluation.)"""
    x = fit.c1 * gamma + fit.c2
    return math.exp(-x if x > -700.0 else 700.0)


def semantic_similarity(fit: SigmoidFit, gamma_db):
    """Semantic similarity in (a1, a1 + a2) at the given SNR in dB."""
    if isinstance(gamma_db, float):
        return fit.a1 + fit.a2 / (1.0 + logistic_v(fit, gamma_db))
    z = np.clip(fit.c1 * gamma_db + fit.c2, -700.0, 700.0)
    return fit.a1 + fit.a2 / (1.0 + np.exp(-z))


def semantic_rate(p: SystemParams, fit: SigmoidFit, alpha_br, eps, suts_per_word=1.0):
    """Semantic throughput in suts/s on the BS->relay hop.

    suts_per_word is the average semantic information per word; it scales
    this rate but cancels out of the bit-equivalent rate.
    """
    if suts_per_word <= 0:
        raise ValueError("suts_per_word must be positive")
    return alpha_br * p.W * suts_per_word * eps / fit.K


def semantic_bit_rate(p: SystemParams, fit: SigmoidFit, alpha_br, eps):
    """Bit-equivalent rate of the semantic hop, bits/s."""
    return p.mu * alpha_br * p.W * eps / fit.K


def bit_rate_ru(p: SystemParams, d_ru, alpha_ru):
    """Shannon rate of the relay->user bit hop, bits/s."""
    return shannon_rate(p, p.P_r, d_ru, alpha_ru)


def min_snr_threshold_db(fit: SigmoidFit) -> float:
    """SNR in dB at which similarity equals eps_bar exactly.

    The similarity floor eps >= eps_bar is equivalent to SNR >= this value,
    because similarity increases with the SNR, and the package states it in
    that form only: `gamma >= min_snr_threshold_db(fit)`. `effective_rate`
    applies it to a point, the grid searches and `penalty` to their
    candidates, and the block programs bound gamma by it. SigmoidFit
    guarantees a1 < eps_bar < a1 + a2, so the log is finite.
    """
    ratio = (fit.eps_bar - fit.a1) / (fit.a1 + fit.a2 - fit.eps_bar)
    return math.log(ratio) / fit.c1 - fit.c2 / fit.c1


def max_semantic_bandwidth(p: SystemParams, fit: SigmoidFit, d_br):
    """Largest alpha_br * W (Hz) keeping similarity at or above eps_bar.

    The closed form can round a few ulps past the floor's edge, so each
    value steps down by ulps until the floor's own rule
    `snr_br_db(p, d_br, cap / p.W) >= min_snr_threshold_db(fit)` holds
    (at most 16 steps on 20,000 random draws). A cap of 0 or +inf, where
    the path loss under- or overflows, is left as it is. A float d_br steps
    down on floats, so the cap meets the rule as the float branch of
    `snr_br_db` computes it, which is the rule `effective_rate` applies.
    """
    gamma_min = min_snr_threshold_db(fit)
    cap = p.W * snr_lin(p, p.P_b, d_br, 1.0) / db_to_lin(gamma_min)
    if isinstance(d_br, float):
        for _ in range(64):
            if not 0.0 < cap < math.inf or snr_br_db(p, d_br, cap / p.W) >= gamma_min:
                break
            cap = math.nextafter(cap, 0.0)
        return cap
    for _ in range(64):
        edge = np.isfinite(cap) & (cap > 0.0)
        miss = edge & ~(snr_br_db(p, d_br, np.where(edge, cap, p.W) / p.W) >= gamma_min)
        if not np.any(miss):
            break
        cap = np.where(miss, np.nextafter(cap, 0.0), cap)[()]
    return cap


def effective_rate(p: SystemParams, fit: SigmoidFit, pt: DesignPoint):
    """min of the two hop rates in bits/s, or None when the point misses the
    similarity floor (infeasible, distinct from a zero rate).

    The floor is the SNR rule of `min_snr_threshold_db`, tested on the SNR
    before any similarity is computed; `is_feasible` defers to this test.
    """
    if pt.alpha_br <= 0:
        return None  # no semantic bandwidth: similarity degenerates to a1 < eps_bar
    gamma = snr_br_db(p, pt.d_br, pt.alpha_br)
    if not gamma >= min_snr_threshold_db(fit):
        return None
    eps = semantic_similarity(fit, gamma)
    r_sem = semantic_bit_rate(p, fit, pt.alpha_br, eps)
    r_bit = bit_rate_ru(p, pt.d_ru, pt.alpha_ru)
    return float(min(r_sem, r_bit))


def is_feasible(p: SystemParams, fit: SigmoidFit, pt: DesignPoint) -> bool:
    """Check every constraint of the design problem at a point.

    The two sum equalities hold within TOL_EQ (distances relative to D);
    the similarity floor is `effective_rate`'s, with no tolerance, so a
    point is feasible exactly when it also has a rate. DesignPoint already
    rejects negative fields.
    """
    return bool(abs(pt.d_br + pt.d_ru - p.D) <= TOL_EQ * p.D
                and abs(pt.alpha_br + pt.alpha_ru - 1.0) <= TOL_EQ
                and effective_rate(p, fit, pt) is not None)
