"""Dual variables, the dual functional, and the duality-gap certificate.

Any field p with ``|p| < cbar`` per pixel (``<= cbar`` when mu > 2) is
feasible for the Fenchel dual; that set is the domain of the conjugate
``phi*`` (``density.phi_conjugate``).  Plugging a feasible p into the
Lagrangian and taking the pointwise infimum over test images yields a
rigorous lower bound ``R_hat[p]`` on the minimal energy (weak duality).
Like the energy, it is one total of a per-pixel field, each pixel's infimum
minus ``phi*(|p|)``:

* on known pixels the infimum of ``d . v + (lam/zeta)|v - f|^zeta`` over all
  v is available in closed form (``d = -div p``);
* on damaged pixels there is no fidelity, so the infimum is taken over the
  ball ``|v| <= L`` instead -- legitimate because every minimizer obeys the
  maximum principle ``sup |u| <= L`` with L the largest known-pixel norm.

The dual has one non-finite rule: a nan total is ``R_hat = -inf``, as a nan
energy total is +inf.  phi*'s unchecked core ``density._phi_conjugate`` is
nan past cbar and at a nan ``|p|`` (and +inf at cbar when mu <= 2), so a p
outside the domain or with a nan norm, like an ``inf - inf`` total, gives
-inf, and the certificate's gap is then inf.

``certify`` evaluates one such field at a candidate restoration u, the
density gradient ``tau = DF(grad u)`` of the viscosity-free density, inside
the ball up to rounding; at the minimizer it is the dual problem's unique
solution.  The certificate is always the delta = 0 problem's: it never reads
the viscosity of its parameters, so an iterate of a level delta > 0 and
the Richardson point of ``solver.continuation`` are certified by one rule.

The reported relative gap upper-bounds the true suboptimality of u.
``certify`` runs its per-pixel passes one row band of the grid at a time and
its reductions over the whole grid, so the band size moves no bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import _phi_conjugate, density_gradient, recession_constant
from .energy import ModelParams, _energy_total, _Plan, _total
from .grid import _check_bound, _field_check, _image_check, _plane_rows, _root_sum_squares
from .grid import _shape_check, _sum_products, _sup_known, channel_norms, divergence, gradient
from .grid import pixel_norms

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
    A dual bound that rounding put above the primal value by at most 1e-10
    relative is reported as the primal value, with gap 0 (``certify``).
    ``dual_scale`` is the theta that tau was scaled by to give
    ``dual_value``: 1.0 except at the mu > 2 rounding edge (``certify``).
    """

    primal_value: float
    dual_value: float
    relative_gap: float
    divergence_residual_on_D: float
    feasibility_margin: float
    dual_scale: float


def sup_known_norm(f, mask) -> float:
    """Largest channel-Euclidean norm of f over known pixels, L.

    Rejects f and mask unless f is finite, mask 2-d bool on its grid and
    L finite (``grid._sup_known``).
    """
    _, f, mask = _shape_check(None, f, mask)
    return _sup_known(f, mask)


def dual_from_primal(u, params: ModelParams):
    """Return ``(tau, sigma) = (DF(grad u), DF_delta(grad u))``; ``sigma = tau + delta grad u``.

    Each is one factor per pixel times ``grad u`` (``density_gradient``), so
    sigma equals ``tau + delta grad u`` up to rounding, not bit for bit.
    """
    g = gradient(_image_check(u, "u"))
    tau = density_gradient(params.density.without_viscosity(), g)
    sigma = density_gradient(params.density, g)
    return tau, sigma


def _known_infimum(dot, d_norms, lam: float, zeta: float):
    """Exact infimum over v of ``d . v + (lam/zeta)|v - f|^zeta`` per pixel.

    Takes ``dot = d . f`` and ``d_norms = |d|``.  Equality is attained at
    ``v = f - (|d|/lam)^(1/(zeta-1)) d/|d|``, giving
    ``d . f - (lam/zc)(|d|/lam)^zc`` with ``zc = zeta/(zeta - 1)``.  Where
    that power overflows the infimum is -inf, still a valid lower bound;
    the callers ignore the overflow.
    """
    zc = zeta / (zeta - 1.0)
    return dot - (lam / zc) * (d_norms / lam) ** zc


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as in certify
def dual_value(tau, f, mask, mparams: ModelParams, bound: float) -> float:
    """Certified lower bound on the minimal delta = 0 energy.

    Returns -inf when some |tau| leaves the domain of the conjugate (the
    module's non-finite rule).  Rejects the inputs that
    ``grid._shape_check``, ``grid._field_check`` and ``grid._check_bound`` do.
    """
    _, f, mask = _shape_check(None, f, mask)
    tau = _field_check(tau, f)
    bound = _check_bound(f, mask, bound)
    d = divergence(tau)
    split = (_sum_products(np.negative(d, out=d), f), channel_norms(d))
    return _dual_value(pixel_norms(tau), split, mask, mparams, bound)


def _dual_value(norms, split, damaged, mparams: ModelParams, bound: float) -> float:
    """``dual_value`` of a field p from ``|p|`` and ``split = (d . f, |d|)``, ``d = -div p``.

    All are per pixel, in the layout of the bool ``damaged``, and ``bound``
    has passed ``_check_bound``.  Each pixel's term is ``_known_infimum``,
    or on D ``-bound |d|``, the infimum of ``d . v`` over ``|v| <= bound``,
    minus ``phi*(|p|)``.  R_hat is one ``_total`` of the terms, -inf where
    that is nan (the module's non-finite rule).  ``certify`` passes tau's
    pieces, or their copies scaled to the mu > 2 rounding edge.
    """
    dot, d_norms = split
    terms = _known_infimum(dot, d_norms, mparams.lam, mparams.zeta)
    np.multiply(-bound, d_norms, out=terms, where=damaged)
    terms -= _phi_conjugate(mparams.density.mu, norms)
    total = _total(terms)
    return -math.inf if math.isnan(total) else total


# About this many values of u make one row band of ``certify``.  A band's
# gradient-sized fields are then ~2 MiB each, so its per-pixel passes run in a
# 4 MiB L2 instead of streaming whole fields; grids up to this size are one band.
_BAND = 2**17


def _row_bands(shape):
    """certify's row bands ``[r0, r1)``: n = ceil(h w M / _BAND) bands of ceil(h/n) rows."""
    h = shape[0]
    n = -(-math.prod(shape) // _BAND)
    rows = -(-h // n)
    return [(r0, min(r0 + rows, h)) for r0 in range(0, h, rows)]


def _join(pieces):
    """One array from its bands' pieces in band order; the piece itself for one band."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _certify_band(u, f, mask, target: ModelParams, r0: int, r1: int):
    """certify's per-pixel outputs on rows ``[r0, r1)`` for delta-free ``target``.

    Returns the pixel energy, ``|tau|``, ``d . f`` and ``|d|`` with ``d = -div
    tau``, flat by pixel.  The band's plan (``energy._Plan``) is built on the halo
    rows ``[r0 - 1, r1 + 1)``, clipped to the grid: ``-div`` of row r0 reads the
    flux of row r0 - 1, and the gradient of row r1 - 1 reads u of row r1.
    Unless r1 = h, the plan's last row, whose gradient and divergence are
    truncated, is then row r1, which is not kept.  tau is written over the
    plan's gradient rows and ``-div tau`` over its u - f rows, and the kept
    pixels are read through the plan's pixel views.
    """
    a, b = max(r0 - 1, 0), min(r1 + 1, len(u))
    keep = slice((r0 - a) * u.shape[1], (r1 - a) * u.shape[1])
    plan = _Plan(f[a:b], mask[a:b], target)
    energy = plan.evaluate(_plane_rows(u[a:b], (2, 0, 1)), plan.energy)
    plan.flux(plan.dev_rows)
    tau, d = plan.grad_pixels[keep], plan.dev_pixels[keep]
    f_pixels = plan.f_rows.T[keep]
    del plan  # and with it the per-pixel buffers that energy, tau and d do not view
    return [energy[keep], _root_sum_squares(tau), _sum_products(d, f_pixels), _root_sum_squares(d)]


def certify(u, f, mask, mparams: ModelParams, bound: float) -> DualCertificate:
    """Evaluate both sides of the delta = 0 problem's duality at u and the relative gap.

    The certificate never reads ``mparams.density.delta``: it is the same
    for every delta.  The primal side is the delta = 0 energy, which the
    viscous energy of an iterate produced at delta > 0 dominates, so the
    reported gap upper-bounds the true suboptimality for the target problem.

    The dual side is the bound of the dual-feasible field
    ``tau = DF(grad u)``, under the module's non-finite rule: where a
    gradient entry overflows, tau's flux there is ``0 * inf = nan``, and the
    bound is -inf, as it is for a ``|tau|`` at or past cbar at mu <= 2.  At
    mu > 2, where ``phi*(cbar)`` is finite, a tau that rounding put past
    cbar is scaled along its own ray to the ball's edge,
    ``theta = cbar/max|tau|``, or to theta = 0, whose bound is 0, where the
    edge's bound is not positive; ``dual_scale`` is that theta, 1.0
    otherwise.  ``divergence_residual_on_D`` and ``feasibility_margin``
    describe the unscaled tau.  The gap is inf when the primal energy or the
    dual bound is infinite.  A gap that rounding made negative, down to
    -1e-10, is reported as 0 with the dual value set to the primal value; a
    more negative one raises ``AssertionError``.

    tau and ``-div tau`` come from ``energy._Plan.flux``, the flux rule of
    the residual, whose factor ``density._flux_factor`` is also
    ``density_gradient``'s.
    Every per-pixel quantity is evaluated one row band at a time
    (``_certify_band``): n = ceil(h w M / _BAND) bands of ceil(h/n) rows,
    each evaluated by a plan (``energy._Plan``) built with one halo row
    above and one below, so a band's fields stay in L2 and no
    gradient-sized array covers the grid.
    Row bands are contiguous in row-major order, so the bands' flat pixel
    energies and dual pieces, joined in band order, are the whole-grid arrays
    in the order of ``mask.reshape(-1)``, and each side is one total over the
    whole grid: each output has the same bits for every band size.  A grid of
    at most _BAND values is one band.
    """
    u, f, mask = _shape_check(u, f, mask)
    bound = _check_bound(f, mask, bound)
    target = mparams.without_viscosity()
    # Inf totals as in ``energy.primal_energy``, d . f on D, which is dropped,
    # and log1p(-1) in phi* at |tau| = cbar.  A block, not a decorator, whose
    # wrapper frame would take the place of the caller in the warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bands = [_certify_band(u, f, mask, target, *rows) for rows in _row_bands(u.shape)]
        energy, norms, *split = map(_join, zip(*bands))
        damaged = mask.reshape(-1)  # row-major, as the bands are joined
        del bands
        primal = _energy_total(energy)
        del energy
        cbar = recession_constant(target.density)
        n_max = float(np.max(norms))
        margin = cbar - n_max
        div_residual = float(np.max(split[1], where=damaged, initial=0.0))  # |div tau| on D
        dual_scale = 1.0
        if margin < 0.0 and target.density.mu > 2.0:  # rounding put some |tau| past cbar
            dual_scale = cbar / n_max  # < 1, as n_max > cbar
            norms, split = cbar * (norms / n_max), [dual_scale * part for part in split]
        dval = _dual_value(norms, split, damaged, target, bound)
        if dual_scale < 1.0 and not dval > 0.0:  # theta = 0, whose bound R_hat(0) = 0 holds
            dual_scale, dval = 0.0, 0.0

    if margin < 1e-12:
        warnings.warn(
            f"dual feasibility margin {margin:.3e} is below 1e-12: some |tau| is within 1e-12 "
            "of cbar, so the certificate is at the rounding edge",
            RuntimeWarning,
            stacklevel=2,
        )

    if dval == -math.inf or primal == math.inf:
        gap = math.inf
    else:
        gap = (primal - dval) / max(1.0, abs(primal))
        if gap < 0.0:
            if gap < -1e-10:
                raise AssertionError(
                    f"weak duality violated: primal {primal} < dual {dval}"
                )
            gap, dval = 0.0, primal
    return DualCertificate(
        primal_value=primal,
        dual_value=dval,
        relative_gap=gap,
        divergence_residual_on_D=div_residual,
        feasibility_margin=margin,
        dual_scale=dual_scale,
    )
