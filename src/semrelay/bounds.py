"""First-order tangent surrogates used by the convex block subproblems.

Each nonconvex term in the design problem is replaced by the tangent of a
convex (or concave) reparametrization, taken at the incumbent iterate. The
surrogates are tight at the expansion point, globally one-sided, and their
coefficients are recomputed from the incumbent at every iteration; caching
them across iterations would break the ascent property of the outer loop.

The `*_coeffs` functions are the only place that derives tangent
coefficients from a `LocalPoint`. Each returns a `Tangent` in scalar
`math`; the block programs in `subproblems` build it once per block solve
and unpack it into their slacks, and the public `*_tangent` evaluators
below apply it to scalars or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from semrelay.model import SigmoidFit, SystemParams, lin_to_db, path_factor

_LOG2E = math.log2(math.e)
_LOG10E = math.log10(math.e)


@dataclass(frozen=True)
class LocalPoint:
    """Expansion point for the tangent surrogates, one field per variable."""

    d_br: float  # m
    d_ru: float  # m
    alpha_br: float  # bandwidth fraction, must stay positive
    gamma_br_db: float  # dB
    similarity: float  # similarity surrogate value at the point

    def __post_init__(self):
        if self.d_br < 0 or self.d_ru < 0:
            raise ValueError("expansion distances must be nonnegative")
        if not self.alpha_br > 0:
            raise ValueError("expansion alpha_br must be positive")


class Tangent(NamedTuple):
    """First-order model f0 + slope * (x - x0) of a function of x."""

    x0: float
    f0: float
    slope: float

    def at(self, x):
        return self.f0 + self.slope * (x - self.x0)


def rate_ru_coeffs(p: SystemParams, lp: LocalPoint, alpha_ru: float) -> Tangent:
    """Spectral efficiency log2(1 + snr) of the relay->user hop in
    u = path_factor(d_ru), where it is convex; tangent at lp.d_ru."""
    u_t = path_factor(p, lp.d_ru)
    snr_t = p.P_r * p.rho0_lin / (u_t * alpha_ru * p.W * p.n0_w_hz)
    return Tangent(u_t, math.log1p(snr_t) * _LOG2E, -(snr_t / u_t) * _LOG2E / (1.0 + snr_t))


def logistic_coeffs(fit: SigmoidFit, lp: LocalPoint) -> Tangent:
    """Logistic term 1/(1 + v) in v = exp(-(c1*gamma + c2)), where it is
    convex; tangent at lp.gamma_br_db."""
    v_t = math.exp(-min(max(fit.c1 * lp.gamma_br_db + fit.c2, -700.0), 700.0))
    sig_t = 1.0 / (1.0 + v_t)
    return Tangent(v_t, sig_t, -sig_t * sig_t)


def log_path_coeffs(lp: LocalPoint, H: float) -> Tangent:
    """log10(y + H^2) in y = d_br^2, where it is concave; tangent at lp.d_br."""
    y_t = lp.d_br * lp.d_br
    base = y_t + H * H
    return Tangent(y_t, math.log10(base), _LOG10E / base)


def square_coeffs(lp: LocalPoint) -> Tangent:
    """x^2 in x = alpha_br + S; tangent at lp.alpha_br + lp.similarity."""
    x_t = lp.alpha_br + lp.similarity
    return Tangent(x_t, x_t * x_t, 2.0 * x_t)


def snr_cap_coeffs(lp: LocalPoint) -> Tangent:
    """The bandwidth term -10*log10(alpha_br) of the semantic-hop SNR in dB,
    convex in alpha_br; tangent at lp.alpha_br."""
    return Tangent(lp.alpha_br, -10.0 * math.log10(lp.alpha_br), -10.0 * _LOG10E / lp.alpha_br)


def rate_ru_tangent(p: SystemParams, lp: LocalPoint, alpha_ru, d_ru):
    """Lower bound of the relay->user rate as the placement varies.

    The rate is convex in u = (d_ru^2 + H^2)^(beta/2); this is its tangent
    in u at lp.d_ru, so it never exceeds the true rate and touches it at
    d_ru = lp.d_ru. Can go negative for large d_ru; callers must not clamp,
    clamping would destroy convexity of the surrogate constraint.
    """
    return alpha_ru * p.W * rate_ru_coeffs(p, lp, alpha_ru).at(path_factor(p, d_ru))


def sigmoid_tangent(fit: SigmoidFit, lp: LocalPoint, gamma_db):
    """Lower bound of the logistic term 1/(1 + exp(-(c1*gamma + c2))).

    Tangent of 1/(1 + v) in v = exp(-(c1*gamma + c2)) at lp.gamma_br_db;
    tight there and below the exact value everywhere else.
    """
    chi = np.clip(fit.c1 * gamma_db + fit.c2, -700.0, 700.0)
    return logistic_coeffs(fit, lp).at(np.exp(-chi))


def log_path_tangent(lp: LocalPoint, H: float, d_br):
    """Upper bound of log10(d_br^2 + H^2), tangent in d_br^2 at lp.d_br."""
    return log_path_coeffs(lp, H).at(d_br * d_br)


def square_tangent(lp: LocalPoint, alpha_br, S):
    """Lower bound of (alpha_br + S)^2, tangent at lp.alpha_br + lp.similarity."""
    return square_coeffs(lp).at(alpha_br + S)


def snr_cap_tangent(p: SystemParams, lp: LocalPoint, d_br, alpha_br):
    """Lower bound in alpha_br of the SNR ceiling of the semantic hop, dB.

    The exact ceiling contains -10*log10(alpha_br), convex in alpha_br;
    linearizing it at lp.alpha_br gives a ceiling that never exceeds the
    exact one, so the constraint gamma <= ceiling stays conservative.
    """
    base_db = lin_to_db(p.P_b * p.rho0_lin / (path_factor(p, d_br) * p.W * p.n0_w_hz))
    return base_db + snr_cap_coeffs(lp).at(alpha_br)


def similarity_tangent(fit: SigmoidFit, lp: LocalPoint, gamma_db):
    """Lower bound of semantic similarity in gamma; a1 + a2 times the
    logistic tangent."""
    return fit.a1 + fit.a2 * sigmoid_tangent(fit, lp, gamma_db)
