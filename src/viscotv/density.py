"""Radial linear-growth density, its derivatives and Fenchel conjugate.

The regularizer applied to a gradient tensor P is the radial density
``F(P) = phi(|P|)`` built from the second derivative ``(1 + t)**(-mu)``,
``mu > 1``.  It grows linearly at infinity with slope ``cbar = 1/(mu - 1)``
(the recession constant), which is also the radius of the ball on which the
Fenchel conjugate ``phi_conjugate`` stays finite.  A quadratic viscosity term
``(delta/2)|P|**2`` can be blended in through ``DensityParams.delta``; the
conjugate is only defined for the viscosity-free density.  Being radial, the
density has the gradient ``DF_delta(P) = (phi'(|P|)/|P| + delta) P``: one
factor per pixel (``_flux_factor``) times P, the one flux rule that
``density_gradient`` and ``energy._Plan.flux`` apply.

All operations are pure and accept scalars or numpy arrays (broadcasting over
leading axes for the tensor-valued ones).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _scalar_check, pixel_norms

__all__ = [
    "DensityParams",
    "phi",
    "phi_prime",
    "density_value",
    "density_gradient",
    "phi_conjugate",
    "recession_constant",
]

# phi and the flux factor phi'(t)/t (``_flux_factor``) take their Taylor forms below this.
_RADIAL_TOL = 1e-12


@dataclass(frozen=True)
class DensityParams:
    """Ellipticity exponent ``mu`` (> 1) and viscosity weight ``delta`` (>= 0).

    ``delta = 0`` selects the plain linear-growth density itself.  Each field
    is a finite real, not a bool, stored as a float (``grid._scalar_check``).
    """

    mu: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mu", _scalar_check(self.mu, "mu", 1.0))
        object.__setattr__(self, "delta", _scalar_check(self.delta, "delta", 0.0, closed=True))

    def without_viscosity(self) -> "DensityParams":
        return self if self.delta == 0.0 else DensityParams(self.mu, 0.0)


def _check_nonneg(t, name="t"):
    t = np.asarray(t, dtype=float)
    if t.size and not np.min(t) >= 0.0:  # also rejects nan
        raise ValueError(f"{name} must be nonnegative")
    return t


def _maybe_scalar(x, scalar_in):
    return float(x) if scalar_in else x


def phi(params: DensityParams, t):
    """Value of the radial density at t >= 0.

    Closed forms: ``t - log(1 + t)`` at mu = 2; for 1.5 <= mu != 2,
    ``t/(mu-1) - ((1+t)**(2-mu) - 1)/((mu-1)(2-mu))``, evaluated via
    expm1/log1p so the mu -> 2 limit stays well conditioned; for mu < 1.5,
    ``((1 + t) phi'(t) - t)/(2 - mu)``, the same function.  Toward mu = 1 the
    second form cancels, losing of the order of ``cbar t eps``; the third stays
    within about ``20 t eps`` there but degrades toward mu = 2.  At mu != 2,
    t below ``_RADIAL_TOL`` takes the Taylor form ``(t^2/2)(1 - mu t/3)``,
    which keeps phi >= 0 where those errors would exceed phi itself.  A value
    beyond the float range, t = inf included, is inf, without a warning.
    """
    scalar_in = np.ndim(t) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        value = _phi(params.mu, _check_nonneg(t))
    # phi is finite and increasing, so a nan (inf - inf) is a value beyond the float range.
    return _maybe_scalar(np.where(np.isnan(value), np.inf, value), scalar_in)


def _phi(mu, t, out=None):
    """``phi`` on a float array t >= 0, unchecked; ``out``, if given, receives it."""
    if mu == 2.0:
        return np.subtract(t, np.log1p(t, out=out), out=out)
    if out is None:
        out = np.empty(np.shape(t))
    if mu < 1.5:
        value = np.divide((1.0 + t) * _phi_prime(mu, t) - t, 2.0 - mu, out=out)
    else:
        curved = np.expm1((2.0 - mu) * np.log1p(t)) / ((mu - 1.0) * (2.0 - mu))
        value = np.subtract(t / (mu - 1.0), curved, out=out)
    # Both forms cancel to about t*eps, which exceeds phi ~ t^2/2 for tiny t
    # and can turn it negative; the Taylor expansion about 0 cannot.
    small = t < _RADIAL_TOL
    tiny = t[small]
    value[small] = 0.5 * tiny * tiny * (1.0 - mu * tiny / 3.0)
    return value


def phi_prime(params: DensityParams, t):
    """First derivative ``(1 - (1+t)**(1-mu))/(mu - 1)``; increases from 0 to cbar."""
    scalar_in = np.ndim(t) == 0
    return _maybe_scalar(_phi_prime(params.mu, _check_nonneg(t)), scalar_in)


def _phi_prime(mu, t):
    """``phi_prime`` on a float array t >= 0, unchecked."""
    return -np.expm1((1.0 - mu) * np.log1p(t)) / (mu - 1.0)


def density_value(params: DensityParams, P):
    """``(delta/2)|P|^2 + phi(|P|)`` with |P| the Frobenius norm.

    P has shape (..., 2, M); the result drops the trailing two axes.
    """
    return _density_value(params, pixel_norms(P))


def _density_value(params: DensityParams, r, out=None, temp=None):
    """``density_value`` from the norms r, written into ``out`` with the help of ``temp``.

    Both are arrays of r's shape, allocated when None.  The viscous term is
    skipped at delta = 0.
    """
    value = _phi(params.mu, r, out)
    if params.delta > 0.0:
        viscous = np.multiply(0.5 * params.delta, r, out=temp)
        viscous *= r
        value += viscous
    return value


def _flux_factor(params: DensityParams, r, out=None):
    """``phi'(r)/r + delta``, so that ``DF_delta(P) = factor * P``; ``out`` may be r itself.

    phi'(r)/r is continuously extended by phi''(0) = 1 at r = 0, and exact
    ``1/(1 + r)`` at mu = 2, finite at r = 0.
    """
    if params.mu == 2.0:
        q = np.divide(1.0, np.add(1.0, r, out=out), out=out)
    else:
        small = r < _RADIAL_TOL
        safe = np.where(small, 1.0, r)
        # First-order Taylor of phi'(r)/r about 0, taken before out overwrites r.
        taylor = 1.0 - 0.5 * params.mu * r[small]
        if out is None:
            out = np.empty(np.shape(r))
        q = np.divide(_phi_prime(params.mu, safe), safe, out=out)
        q[small] = taylor
    q += params.delta
    return q


def density_gradient(params: DensityParams, P):
    """Gradient ``DF_delta(P) = (phi'(|P|)/|P| + delta) P``, the value 0 at P = 0, in P's layout."""
    P = np.asarray(P, dtype=float)
    q = _flux_factor(params, pixel_norms(P))
    return np.multiply(q[..., None, None], P, out=np.empty_like(P))


def recession_constant(params: DensityParams) -> float:
    """Recession constant ``lim phi(t)/t = 1/(mu - 1)`` of the viscosity-free density."""
    return 1.0 / (params.mu - 1.0)


def phi_conjugate(params: DensityParams, s):
    """Fenchel conjugate ``sup_t [s t - phi(t)]`` of the viscosity-free density.

    Closed form with ``L = log(1 - s/cbar)``: ``-s - L`` at mu = 2, otherwise
    ``-s + (exp(L (mu-2)/(mu-1)) - 1)/(2 - mu)``.  Finite for s < cbar; at
    s = cbar (L = -inf) it equals ``1/((mu-1)(mu-2))`` when mu > 2 and +inf
    otherwise; +inf beyond.  Requires delta = 0.
    """
    if params.delta != 0.0:
        raise ValueError("phi_conjugate is defined for the delta = 0 density only")
    scalar_in = np.ndim(s) == 0
    s = _check_nonneg(s, name="s")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _phi_conjugate(params.mu, s)
    out = np.where(s > recession_constant(params), np.inf, out)
    return _maybe_scalar(out, scalar_in)


def _phi_conjugate(mu, s):
    """``phi_conjugate`` on a float array s >= 0, unchecked; nan beyond cbar and at nan s.

    Its callers' ``np.errstate`` ignores ``log1p(-1)``'s divide at s = cbar.
    """
    cbar = 1.0 / (mu - 1.0)  # recession_constant
    # s/cbar rather than (mu-1) s: (mu-1) cbar can round to 1 - 2**-53,
    # while s/cbar is exactly 1 at s = cbar, so L = -inf there.
    L = np.log1p(-s / cbar)
    if mu == 2.0:
        return -s - L
    return -s + np.expm1((mu - 2.0) / (mu - 1.0) * L) / (2.0 - mu)
