"""Dual variables, the dual functional, and the duality-gap certificate.

For a candidate restoration u the dual field ``tau = DF(grad u)`` (the
viscosity-free part of the density gradient) is always strictly inside the
ball of radius ``cbar`` where the conjugate density is finite.  Plugging tau
into the Lagrangian and taking the pointwise infimum over test images yields
a rigorous lower bound ``R_hat[tau]`` on the minimal energy:

* on known pixels the infimum of ``d . v + (lam/zeta)|v - f|^zeta`` over all
  v is available in closed form (``d = -div tau``);
* on damaged pixels there is no fidelity, so the infimum is taken over the
  ball ``|v| <= L`` instead -- legitimate because every minimizer obeys the
  maximum principle ``sup |u| <= L`` with L the largest known-pixel norm.

``certify`` packages the resulting bound as a duality-gap certificate: the
reported relative gap upper-bounds the true suboptimality of u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import density_gradient, phi_conjugate, recession_constant
from .energy import ModelParams, _fsum, _Point, _shape_check
from .grid import channel_norms, divergence, gradient, pixel_norms

__all__ = [
    "DualCertificate",
    "dual_from_primal",
    "dual_value",
    "certify",
    "known_pixel_infimum",
    "damaged_pixel_infimum",
    "sup_known_norm",
]


@dataclass(frozen=True)
class DualCertificate:
    """Primal/dual pair with the relative gap and feasibility diagnostics.

    ``dual_value <= primal_value`` always (weak duality);
    ``relative_gap = (primal_value - dual_value)/max(1, |primal_value|)``.
    """

    primal_value: float
    dual_value: float
    relative_gap: float
    divergence_residual_on_D: float
    feasibility_margin: float


def sup_known_norm(f, mask) -> float:
    """Largest channel-Euclidean norm of f over known pixels."""
    f = np.asarray(f, dtype=float)
    mask = np.asarray(mask)
    return float(np.max(channel_norms(f)[~mask]))


def dual_from_primal(u, params: ModelParams):
    """Return ``(tau, sigma) = (DF(grad u), delta*grad u + tau)``."""
    g = gradient(u)
    tau = density_gradient(params.density.without_viscosity(), g)
    sigma = params.density.delta * g + tau
    return tau, sigma


def known_pixel_infimum(d, f_val, lam: float, zeta: float):
    """Exact infimum over v of ``d . v + (lam/zeta)|v - f|^zeta`` per pixel.

    d and f_val have a trailing channel axis; equality is attained at
    ``v = f - (|d|/lam)^(1/(zeta-1)) d/|d|``, giving
    ``d . f - (lam/zc)(|d|/lam)^zc`` with ``zc = zeta/(zeta - 1)``.  Where
    that power overflows the infimum is -inf, still a valid lower bound.
    """
    d = np.asarray(d, dtype=float)
    f_val = np.asarray(f_val, dtype=float)
    dot = np.sum(d * f_val, axis=-1)
    zc = zeta / (zeta - 1.0)
    with np.errstate(over="ignore"):
        return dot - (lam / zc) * (channel_norms(d) / lam) ** zc


def damaged_pixel_infimum(d, bound: float):
    """Exact infimum of ``d . v`` over the channel ball ``|v| <= bound``."""
    return -bound * channel_norms(d)


def dual_value(tau, f, mask, mparams: ModelParams, bound: float) -> float:
    """Certified lower bound on the minimal delta = 0 energy.

    Returns -inf when some |tau| leaves the domain of the conjugate
    (|tau| > cbar, or |tau| >= cbar when mu <= 2).
    """
    tau = np.asarray(tau, dtype=float)
    return _dual_value(
        pixel_norms(tau), -divergence(tau), f, mask, mparams, bound
    )


def _dual_value(tau_norms, d, f, mask, mparams: ModelParams, bound: float) -> float:
    """``dual_value`` from ``pixel_norms(tau)`` and ``d = -divergence(tau)``."""
    f = np.asarray(f, dtype=float)
    mask = np.asarray(mask)
    dparams = mparams.density.without_viscosity()
    sup_f = sup_known_norm(f, mask)
    if bound < sup_f * (1.0 - 1e-12):
        raise ValueError(f"bound {bound} is below the largest known-pixel norm {sup_f}")

    cbar = recession_constant(dparams)
    if dparams.mu <= 2.0:
        infeasible = tau_norms >= cbar
    else:
        infeasible = tau_norms > cbar
    if infeasible.any():
        return -math.inf

    conj = phi_conjugate(dparams, tau_norms)
    known = ~mask
    known_terms = known_pixel_infimum(d, f, mparams.lam, mparams.zeta)[known]
    damaged_terms = damaged_pixel_infimum(d, bound)[mask]
    return _fsum(-conj) + _fsum(known_terms) + _fsum(damaged_terms)


def _into_ball(tau, tau_norms, cbar: float):
    """Scale each pixel with ``|tau| > cbar`` back into the closed cbar-ball.

    Returns the scaled field and its recomputed norms.  Rounding can leave a
    pixel scaled to radius cbar just outside it; those are scaled to
    ``cbar (1 - 4 eps)`` instead.  Any field in the ball is dual-feasible at
    mu > 2, where ``phi*(cbar)`` is finite.
    """
    over = tau_norms > cbar
    for radius in (cbar, cbar * (1.0 - 4.0 * np.finfo(float).eps)):
        scale = np.divide(radius, tau_norms, out=np.ones_like(tau_norms), where=over)
        scaled = tau * scale[..., None, None]
        scaled_norms = pixel_norms(scaled)
        if not (scaled_norms > cbar).any():
            break
    return scaled, scaled_norms


def certify(u, f, mask, mparams: ModelParams, bound: float) -> DualCertificate:
    """Build tau from u, evaluate both sides of the duality and the gap.

    The primal side is the delta = 0 energy even for iterates produced at
    delta > 0; it dominates the viscous energy, so the reported gap
    upper-bounds the true suboptimality for the target problem.  At mu > 2,
    pixels where rounding puts ``|tau|`` above cbar are scaled back into the
    ball first (``feasibility_margin`` still reports the unscaled field).
    The gap is inf when the primal energy or the dual bound is infinite.
    """
    u, f, mask = _shape_check(u, f, mask)
    target = mparams.without_viscosity()
    point = _Point(u, f, mask, target)
    primal = point.total
    tau = density_gradient(target.density, point.grad, norms=point.grad_norms)
    del point  # its gradient field is as large as tau
    tau_norms = pixel_norms(tau)
    cbar = recession_constant(target.density)
    margin = cbar - float(np.max(tau_norms))
    if margin < 0.0 and target.density.mu > 2.0:
        tau, tau_norms = _into_ball(tau, tau_norms, cbar)
    div_tau = divergence(tau)
    dval = _dual_value(tau_norms, -div_tau, f, mask, mparams, bound)

    if margin < 1e-12:
        warnings.warn(
            f"dual feasibility margin {margin:.3e} is tiny; gradients are enormous",
            RuntimeWarning,
            stacklevel=2,
        )
    if mask.any():
        div_residual = float(np.max(channel_norms(div_tau)[mask]))
    else:
        div_residual = 0.0

    if dval == -math.inf or primal == math.inf:
        gap = math.inf
    else:
        gap = (primal - dval) / max(1.0, abs(primal))
        if gap < 0.0:
            if gap < -1e-10:
                raise AssertionError(
                    f"weak duality violated: primal {primal} < dual {dval}"
                )
            gap = 0.0
    return DualCertificate(
        primal_value=primal,
        dual_value=dval,
        relative_gap=gap,
        divergence_residual_on_D=div_residual,
        feasibility_margin=margin,
    )
