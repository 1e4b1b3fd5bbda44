"""Dual variables, the dual functional, and the duality-gap certificate.

Any field p with ``|p| < cbar`` per pixel (``<= cbar`` when mu > 2) is
feasible for the Fenchel dual; that set is the domain of
``density.phi_conjugate``, which is +inf outside it and so makes
``R_hat[p]`` -inf there.  Plugging a feasible p into the Lagrangian and
taking the pointwise infimum over test images yields a rigorous lower bound
``R_hat[p]`` on the minimal energy (weak duality):

* on known pixels the infimum of ``d . v + (lam/zeta)|v - f|^zeta`` over all
  v is available in closed form (``d = -div p``);
* on damaged pixels there is no fidelity, so the infimum is taken over the
  ball ``|v| <= L`` instead -- legitimate because every minimizer obeys the
  maximum principle ``sup |u| <= L`` with L the largest known-pixel norm.

``certify`` evaluates two such fields at a candidate restoration u and keeps
the larger bound, which is then still a lower bound:

* ``tau = DF(grad u)``, the viscosity-free part of the density gradient,
  inside the ball up to rounding;
* ``theta sigma``, the paper's viscous flux ``sigma = DF_delta(grad u) =
  tau + delta grad u`` scaled by the theta in ``(0, cbar/max|sigma|]`` that
  maximizes ``R_hat(theta sigma)``.  At an iterate of level delta, div sigma
  vanishes on the damaged region up to the inner residual, where tau pays
  ``L |div tau| = L delta |Laplacian u|``, so this bound is O(delta^2) from
  the optimum instead of O(delta).  It is skipped at delta = 0 and when no
  pixel is damaged, where tau is the better field.

The reported relative gap upper-bounds the true suboptimality of u.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import density_gradient, phi_conjugate, recession_constant
from .energy import ModelParams, _fsum, _Point
from .grid import _check_bound, _field_check, _image_check, _negative_divergence, _shape_check
from .grid import _sum_products, _sup_known, channel_norms, gradient, pixel_norms

__all__ = [
    "DualCertificate",
    "dual_from_primal",
    "dual_value",
    "certify",
    "sup_known_norm",
]


@dataclass(frozen=True)
class DualCertificate:
    """Primal/dual pair with the relative gap and feasibility diagnostics.

    ``dual_value <= primal_value`` always (weak duality);
    ``relative_gap = (primal_value - dual_value)/max(1, |primal_value|)``.
    ``dual_field`` (``"tau"`` or ``"sigma"``) and ``dual_scale``, the theta
    it was scaled by, say which dual field gave ``dual_value``.  tau's theta
    is 1.0 except at the mu > 2 rounding edge (``certify``).
    """

    primal_value: float
    dual_value: float
    relative_gap: float
    divergence_residual_on_D: float
    feasibility_margin: float
    dual_field: str
    dual_scale: float


def sup_known_norm(f, mask) -> float:
    """Largest channel-Euclidean norm of f over known pixels, L.

    Rejects f and mask unless f is finite, mask 2-d bool on its grid and
    L finite (``grid._sup_known``).
    """
    _, f, mask = _shape_check(None, f, mask)
    return _sup_known(f, mask)


def dual_from_primal(u, params: ModelParams):
    """Return ``(tau, sigma) = (DF(grad u), DF_delta(grad u))``; ``sigma = tau + delta grad u``."""
    g = gradient(_image_check(u, "u"))
    tau = density_gradient(params.density.without_viscosity(), g)
    sigma = density_gradient(params.density, g)
    return tau, sigma


def _known_infimum(dot, d_norms, lam: float, zeta: float):
    """Exact infimum over v of ``d . v + (lam/zeta)|v - f|^zeta`` per pixel.

    Takes ``dot = d . f`` and ``d_norms = |d|``.  Equality is attained at
    ``v = f - (|d|/lam)^(1/(zeta-1)) d/|d|``, giving
    ``d . f - (lam/zc)(|d|/lam)^zc`` with ``zc = zeta/(zeta - 1)``.  Where
    that power overflows the infimum is -inf, still a valid lower bound.
    """
    zc = zeta / (zeta - 1.0)
    with np.errstate(over="ignore"):
        return dot - (lam / zc) * (d_norms / lam) ** zc


def dual_value(tau, f, mask, mparams: ModelParams, bound: float) -> float:
    """Certified lower bound on the minimal delta = 0 energy.

    Returns -inf when some |tau| leaves the domain of the conjugate
    (``phi_conjugate`` is +inf there).  Rejects the inputs that
    ``grid._shape_check``, ``grid._field_check`` and ``grid._check_bound`` do.
    """
    _, f, mask = _shape_check(None, f, mask)
    tau = _field_check(tau, f)
    _check_bound(f, mask, bound)
    split = _split(_negative_divergence(tau), f, mask)
    return _dual_value(pixel_norms(tau), split, mparams, bound)


def _split(d, f, mask):
    """``d . f`` and ``|d|`` on the known pixels, ``|d|`` on the damaged ones."""
    d_norms = channel_norms(d)
    known = ~mask
    return _sum_products(d, f)[known], d_norms[known], d_norms[mask]


def _dual_value(norms, split, mparams: ModelParams, bound: float) -> float:
    """``dual_value`` of a field p from ``pixel_norms(p)`` and ``_split(-divergence(p), ...)``.

    ``bound`` has passed ``_check_bound``.  The damaged pixels contribute
    ``-bound |d|``, the infimum of ``d . v`` over the ball ``|v| <= bound``.
    The bound is -inf as soon as the conjugate's sum is, before the other
    terms can turn it into nan.
    """
    dot_known, d_known, d_damaged = split
    value = _fsum(-phi_conjugate(mparams.density.without_viscosity(), norms))
    if value == -math.inf:
        return value
    known_terms = _known_infimum(dot_known, d_known, mparams.lam, mparams.zeta)
    return value + _fsum(known_terms) + _fsum(-bound * d_damaged)


# Largest float below 1: the last scale short of the ball's edge.
_EDGE = 1.0 - 2.0**-53
_NEWTON_STEPS = 60


def _scaled_dual(norms, split, mparams: ModelParams, bound: float, tol: float):
    """Maximize ``R_hat(theta sigma)`` over ``0 < theta <= theta_max``.

    ``norms`` is ``|sigma|`` per pixel and ``split`` is ``_split(d, f, mask)``
    with ``d = -div sigma``.  Norms and divergence are linear in theta, so
    with ``zc = zeta/(zeta-1)``

        R_hat(theta) = -sum phi*(theta |sigma|) + theta A - theta^zc B - theta C,

    ``A = sum_known d . f``, ``B = (lam/zc) sum_known (|d|/lam)^zc`` and
    ``C = bound sum_D |d|``, a concave function of theta.  Its slope vanishes
    at the optimum; a Newton iteration on the slope, bisecting whenever a
    step leaves the bracket, finds it.  ``phi*'`` and ``phi*''`` share
    ``l = log1p(-s/cbar)``: ``expm1(-l/(mu-1))`` and ``exp(-mu l/(mu-1))``.
    ``theta_max = cbar/max|sigma|`` is excluded at mu <= 2, where
    ``phi*(cbar)`` is +inf, and taken at mu > 2 when the slope just short of
    it is still positive.  Once a step's predicted gain
    ``slope^2/|curvature|`` is at most tol, the step is taken and the
    iteration stops.

    Returns ``(theta, value)``, the value by ``_dual_value`` (every theta in
    range gives a valid bound, so theta need only be near-optimal), or None
    when sigma is 0 or the slope at theta = 0 is not positive.
    """
    mu, lam, zeta = mparams.density.mu, mparams.lam, mparams.zeta
    cbar = recession_constant(mparams.density)
    n_max = np.max(norms)
    if not n_max > 0.0:
        return None
    theta_max = cbar / n_max
    w = norms / n_max  # theta |sigma| / cbar = (theta/theta_max) w
    sq = norms * norms

    dot_known, d_known, d_damaged = split
    a_minus_c = np.sum(dot_known) - bound * np.sum(d_damaged)
    if not a_minus_c > 0.0:  # R_hat falls from R_hat(0) = 0
        return None
    # theta^zc B = b (theta m)^zc, each ratio under the power at most 1.
    zc = zeta / (zeta - 1.0)
    d_max = np.max(d_known)
    m = d_max / lam
    b = lam / zc * np.sum((d_known / d_max) ** zc) if d_max > 0.0 else 0.0

    def slope(rho):
        """dR_hat/dtheta and d2R_hat/dtheta2 at theta = rho theta_max."""
        e = np.log1p(-rho * w) / (1.0 - mu)
        g = a_minus_c - np.sum(norms * np.expm1(e))
        h = -np.sum(sq * np.exp(mu * e))
        if b > 0.0:
            y = rho * theta_max * m
            g -= zc * b * m * y ** (zc - 1.0)
            h -= zc * (zc - 1.0) * b * m * m * y ** (zc - 2.0)
        return g, h

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo, hi = 0.0, 1.0
        rho = min(1.0 / theta_max, 0.5)
        for _ in range(_NEWTON_STEPS):
            g, h = slope(rho)
            if g == 0.0:
                break
            if g > 0.0:
                if rho == _EDGE and mu > 2.0:  # the optimum is on the ball's edge
                    rho = 1.0
                    break
                lo = rho
            else:
                hi = rho
            new = rho - g / (h * theta_max)
            if lo < new < hi:
                if g * g <= -h * tol:
                    rho = new
                    break
            else:
                new = _EDGE if hi == 1.0 and mu > 2.0 else 0.5 * (lo + hi)
            if new == rho:
                break
            rho = new
        theta = rho * theta_max
        value = _dual_value(
            cbar * (rho * w), (theta * dot_known, theta * d_known, theta * d_damaged),
            mparams, bound,
        )
    return float(theta), value


def certify(u, f, mask, mparams: ModelParams, bound: float) -> DualCertificate:
    """Evaluate both sides of the duality at u and the relative gap.

    The primal side is the delta = 0 energy even for iterates produced at
    delta > 0; it dominates the viscous energy, so the reported gap
    upper-bounds the true suboptimality for the target problem.

    The dual side is the better of two dual-feasible fields, so by weak
    duality it is still a lower bound on the minimal energy:

    * ``tau = DF(grad u)``, always.  Where rounding puts some ``|tau|``
      above cbar at mu > 2, tau is scaled along its own ray into the ball
      by ``_scaled_dual``, as sigma is, or to theta = 0 (bound 0) where
      R_hat falls from there.  At mu <= 2 the bound is then -inf.
    * ``theta sigma`` with the paper's viscous flux
      ``sigma = DF_delta(grad u) = tau + delta grad u`` at the delta of
      ``mparams`` and theta maximizing ``R_hat(theta sigma)``
      (``_scaled_dual``).  On the damaged region, where tau pays
      ``bound |div tau| = bound delta |Laplacian u|``, div sigma vanishes up
      to the inner residual, so its bias is O(delta^2) against tau's
      O(delta).  Skipped at delta = 0 or when no pixel is damaged: there the
      delta = 0 conjugate overcharges sigma by about
      ``delta sum |grad u|^2`` and tau wins.

    ``dual_field`` names the winner (``"tau"`` on ties) and ``dual_scale``
    is its theta, for tau 1.0 except at the mu > 2 rounding edge;
    ``divergence_residual_on_D`` and ``feasibility_margin`` describe the
    unscaled tau.  The gap is inf when the primal energy or the dual bound
    is infinite.

    Both fields come from ``density_gradient``, the flux rule of the
    residual.  sigma is built first in a buffer of its own, split and
    dropped; tau is then written over the primal point's gradient of u, and
    each divergence is negated in its own buffer, so no gradient-sized array
    outlives its split.
    """
    u, f, mask = _shape_check(u, f, mask)
    _check_bound(f, mask, bound)
    target = mparams.without_viscosity()
    delta = mparams.density.delta
    point = _Point(u, f, mask, target)
    primal = point.total
    viscous = delta > 0.0 and bool(mask.any())
    if viscous:
        sigma = density_gradient(mparams.density, point.grad, norms=point.grad_norms)
        sigma_split = _split(_negative_divergence(sigma), f, mask)
        del sigma
    # tau is written over the gradient, which nothing reads after it.
    tau = density_gradient(
        target.density, point.grad, norms=point.grad_norms, out=point.grad
    )
    tau_norms = pixel_norms(tau)
    if viscous:
        sigma_norms = tau_norms + delta * point.grad_norms
    tau_split = _split(_negative_divergence(tau), f, mask)
    del point, tau  # tau is the point's gradient buffer
    margin = recession_constant(target.density) - float(np.max(tau_norms))
    # A last Newton step predicted to gain 1e-6 of the gap's scale
    # leaves ~1e-12 of it: far below any gap worth certifying.
    tol = 1e-6 * max(1.0, abs(primal))
    dual_field, dual_scale = "tau", 1.0
    if margin < 0.0 and target.density.mu > 2.0:
        scaled = _scaled_dual(tau_norms, tau_split, mparams, bound, tol)
        dual_scale, dval = scaled or (0.0, 0.0)
    else:
        dval = _dual_value(tau_norms, tau_split, mparams, bound)
    if viscous:
        scaled = _scaled_dual(sigma_norms, sigma_split, mparams, bound, tol)
        if scaled is not None and scaled[1] > dval:
            dual_field = "sigma"
            dual_scale, dval = scaled

    if margin < 1e-12:
        warnings.warn(
            f"dual feasibility margin {margin:.3e} is tiny; gradients are enormous",
            RuntimeWarning,
            stacklevel=2,
        )
    div_residual = float(np.max(tau_split[2], initial=0.0))  # |div tau| on D

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
        dual_field=dual_field,
        dual_scale=dual_scale,
    )
