"""Discrete primal energies and their exact first variation.

The objective is ``sum_pixels F_delta(grad u) + (lam/zeta) sum_known |u - f|^zeta``
with the channel-Euclidean norm per pixel and the damaged pixels carrying no
fidelity.  ``euler_residual`` is its gradient with respect to every pixel
value, exact to floating precision, so a vanishing residual characterizes the
(unique, delta > 0) minimizer.

``_Plan`` is the evaluation plan of one solve: built once, it binds f, the
mask and fixed gradient-, image- and pixel-sized buffers, and evaluates each
point with a fixed list of ufunc calls into them.  It computes
``gradient(u)``, ``u - f``, the pixel norms and the deviation norms once per
point and shares them between the per-pixel energy field, the gradient of
the density part and the residual; ``primal_energy``, ``euler_residual``,
``solver.minimize_smooth`` and ``dual.certify`` evaluate through it.
``_fidelity_prox`` is the exact proximal map of the fidelity, which is
pixel-separable and radial, so it reduces to one scalar root per known
pixel; it writes into a buffer the caller passes.

Every scalar total, here, in ``dual`` and in ``solver``, is ``_total``: one
``np.add.reduce`` over the row-major values, numpy's pairwise summation, whose
error is at most about ``ceil(log2 n) * eps * sum|x|`` for n values.  The
per-pixel norms (``grid.channel_norms``, ``grid.pixel_norms``) sum the squares
of their components one by one in a fixed order (``grid._sum_products``).
Energies are therefore reproducible bit for bit for a given grid, whatever the
memory layout of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .density import DensityParams, _density_value, _flux_factor
from .grid import _divergence_rows, _gradient_rows, _plane_rows, _unstitched
from .grid import _root_sum_squares, _scalar_check, _shape_check, channel_norms

__all__ = ["ModelParams", "fidelity", "primal_energy", "euler_residual"]


@dataclass(frozen=True)
class ModelParams:
    """Fidelity weight ``lam`` (> 0), exponent ``zeta`` (> 1) and the density.

    ``lam`` and ``zeta`` are finite reals, not bools, stored as floats
    (``grid._scalar_check``).
    """

    lam: float
    zeta: float
    density: DensityParams

    def __post_init__(self):
        object.__setattr__(self, "lam", _scalar_check(self.lam, "lam", 0.0))
        object.__setattr__(self, "zeta", _scalar_check(self.zeta, "zeta", 1.0))

    def with_delta(self, delta: float) -> "ModelParams":
        return replace(self, density=DensityParams(self.density.mu, delta))

    def without_viscosity(self) -> "ModelParams":
        return self if self.density.delta == 0.0 else self.with_delta(0.0)


def _total(values) -> float:
    """The sum of the values in row-major order: one pairwise ``np.add.reduce``.

    ``values.ravel()`` of the ndarray fixes the order, so every layout gives
    the same bits; on a C-contiguous array it is a view.  A total beyond the
    float range is inf; numpy warns when a sum overflows, and the public
    entry points that sum ignore that warning once per call (``np.errstate``,
    a decorator or, in ``certify``, a with-block), not here, where the
    context would cost about half the sum of a 48x48 field.
    """
    return float(np.add.reduce(values.ravel()))


def _energy_total(pixel_energy) -> float:
    """The total of a pixel energy field (``_total``), +inf where that total is nan.

    For finite u and f a pixel energy is nan only where a norm overflowed
    (``inf - inf`` in ``phi``, ``0*inf`` in the viscous term), so the energy
    is beyond the float range.
    """
    total = _total(pixel_energy)
    return math.inf if math.isnan(total) else total


def _fidelity_field(dev_norms, mask, params: ModelParams, out=None) -> np.ndarray:
    """``(lam/zeta)|u - f|^zeta`` per known pixel, 0 on damaged pixels; ``out`` receives it."""
    field = np.power(dev_norms, params.zeta, out=out)
    field *= params.lam / params.zeta
    np.copyto(field, 0.0, where=mask)
    return field


def _newton_shrink(a, c, zeta):
    """``r/a`` for the root r of ``r + c*r**(zeta-1) = a``, by Newton's method.

    The equation is rewritten as ``y + b*y**e = d`` with e > 1: y = r for
    zeta > 2, ``y = r**(zeta-1)`` for zeta < 2.  The left side is then convex
    and increasing in y, so Newton started above the root decreases
    monotonically; it stops when no entry decreases any more.
    """
    m = zeta - 1.0
    d, b, e = (a, c, m) if m > 1.0 else (a / c, 1.0 / c, 1.0 / m)
    y = np.minimum(d, (d / b) ** (1.0 / e))
    while True:
        new = y - (y + b * y**e - d) / (1.0 + b * e * y ** (e - 1.0))
        lower = new < y
        if not lower.any():
            break
        y = np.where(lower, new, y)
    r = y if m > 1.0 else y**e
    return np.divide(r, a, out=np.zeros_like(a), where=a > 0.0)


def _fidelity_prox(w, f, mask, params: ModelParams, gamma: float, *, out) -> np.ndarray:
    """``argmin_v gamma * fidelity(v) + |v - w|^2 / 2``, exact for every zeta > 1.

    On a known pixel ``v = f + (r/a)(w - f)`` with ``a = |w - f|`` and r the
    root of ``r + gamma*lam*r**(zeta-1) = a``; damaged pixels keep w, so f
    there never matters (their shrink is taken at ``a = 0``).  The arrays
    are taken as given: w, f float of one shape (..., M), channels last,
    mask boolean of their leading shape: (H, W) for images, (H*W,) for the
    transposed stitched rows the solver passes.  ``out``, an array of that
    shape not sharing memory with w or f, receives the result and is returned.
    """
    prox = np.subtract(w, f, out=out)  # the deviation, shrunk and shifted back in place
    c = gamma * params.lam
    if params.zeta == 2.0:  # r/a = 1/(1 + c) for every a: no deviation norms
        prox *= 1.0 / (1.0 + c)
    else:
        a = np.where(mask, 0.0, channel_norms(prox))
        if params.zeta == 1.5:  # sqrt(r) = 2a / (c + sqrt(c^2 + 4a))
            # The closed form made a 32x32 inpainting solve 1.4-2.1x faster
            # than Newton (2-vCPU host, BENCH_4.json).
            shrink = 4.0 * a / (c + np.sqrt(c * c + 4.0 * a)) ** 2
        else:
            shrink = _newton_shrink(a, c, params.zeta)
        prox *= shrink[..., None]
    prox += f
    np.copyto(prox, w, where=mask[..., None])
    return prox


class _Plan:
    """The evaluation plan of one solve: points on f's grid evaluated into fixed buffers.

    Built once per ``solver.minimize_smooth`` call, ``dual.certify`` band,
    ``primal_energy`` or ``euler_residual`` call, it binds once what every
    point reuses, each as stitched rows or a view of them: f as ``f_rows``
    (M, H*W), contiguous (a view of a planar f, one copy of any other, so no
    point reads f strided), the flat mask, the known-pixel weight
    ``lam * 1_known`` (on the first residual), the rows of a gradient field
    ``grad_rows`` (2, M, H*W) and an image ``dev_rows`` (M, H*W) with their
    per-pixel views ``grad_pixels`` (H*W, 2M), by (component, channel) as
    ``grid.pixel_norms`` orders them, and ``dev_pixels`` (H*W, M), and flat
    per-pixel buffers: |grad u| ``norms``, |u - f| ``dev_norms``, one plane
    temporary ``temp`` and the pixel energies ``energy``; ``dev`` (H, W, M)
    is ``euler_residual``'s view of ``dev_rows``.  Points and density
    residuals are passed as stitched rows, and f's pixels are ``f_rows.T``.
    Each rule keeps its one definition: the stencils of ``grid``, the norm
    order of ``grid._sum_products``, the density and flux factor of
    ``density`` and the fidelity here, each applied to the bound views with
    ``out=`` into the buffers, so a point costs a fixed list of ufunc calls
    and allocates nothing at mu = 2 and zeta = 2.

    ``evaluate(u, out)`` writes the pixel energies of u into ``out`` and
    leaves u's gradient in ``grad_rows``, u - f in ``dev_rows`` and both norms
    in their buffers; ``_energy_total`` sums them.  Until the next
    ``evaluate``, ``flux(out)`` writes the flux ``DF_delta(grad u)`` over
    ``grad_rows`` (and its factor over ``norms``) and ``-div`` of it, the
    gradient of the density part alone, into the rows ``out``;
    ``residual(density_out)`` calls it and writes the residual, the exact
    gradient of the energy, over ``dev_rows``, which it returns.
    f and mask are taken as ``grid._shape_check`` returns them.
    """

    def __init__(self, f, mask, params: ModelParams):
        h, w, m = f.shape
        self.params = params
        self.width = w
        self.f_rows = np.ascontiguousarray(_plane_rows(f, (2, 0, 1)))
        self.mask = mask.reshape(-1)
        self.grad_rows, self.dev_rows = np.empty((2, m, h * w)), np.empty((m, h * w))
        self.dev = _unstitched(self.dev_rows, h, w)
        # Pixel by (component, channel) and pixel by channel: the last axis is summed.
        self.grad_pixels = self.grad_rows.reshape(2 * m, h * w).T
        self.dev_pixels = self.dev_rows.T
        self.norms, self.dev_norms, self.temp, self.energy = (np.empty(h * w) for _ in range(4))

    def evaluate(self, u, out) -> np.ndarray:
        """The pixel energies of the point u, stitched rows (M, H*W), written into ``out``."""
        params, temp = self.params, self.temp
        _gradient_rows(u, self.grad_rows, self.width)
        _root_sum_squares(self.grad_pixels, self.norms, temp)
        np.subtract(u, self.f_rows, out=self.dev_rows)
        _root_sum_squares(self.dev_pixels, self.dev_norms, temp)
        _density_value(params.density, self.norms, out, temp)
        out += _fidelity_field(self.dev_norms, self.mask, params, temp)
        return out

    @cached_property
    def known_weight(self) -> np.ndarray:
        """``lam * 1_known`` per pixel, taken on the first residual."""
        return self.params.lam * ~self.mask

    def flux(self, out) -> None:
        """``DF_delta(grad u)`` of the last point over ``grad_rows``, ``-div`` of it into ``out``.

        The flux factor (``density._flux_factor``) goes over ``norms`` and
        multiplies ``grad_rows`` in place; ``out``, rows (M, H*W), receives
        the divergence, negated in place.
        """
        q = _flux_factor(self.params.density, self.norms, self.norms)
        np.multiply(q, self.grad_rows, out=self.grad_rows)
        _divergence_rows(self.grad_rows, out, self.width)
        np.negative(out, out=out)

    def residual(self, density_out) -> np.ndarray:
        """The residual of the last point over ``dev_rows``, which is returned.

        ``-div DF_delta(grad u)`` goes into ``density_out``; both are stitched
        rows (M, H*W).  The fidelity part is
        ``lam * 1_known * |u - f|^(zeta - 2) (u - f)``, its factor taken as 0
        at u = f when zeta < 2 (its continuous limit).
        """
        self.flux(density_out)
        coef, zeta = self.known_weight, self.params.zeta
        if zeta != 2.0:  # |u - f|^(zeta - 2) is 1 at zeta = 2
            norms = self.dev_norms
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.power(norms, zeta - 2.0, out=self.temp)
            np.copyto(scale, 0.0, where=~((norms > 0.0) & ~self.mask))
            coef = np.multiply(coef, scale, out=scale)
        # Built in place; the same bits as density_out + coef*(u - f).
        dev = np.multiply(self.dev_rows, coef, out=self.dev_rows)
        dev += density_out
        return dev


@np.errstate(over="ignore")  # an overflowing sum is inf (``_total``)
def fidelity(u, f, mask, params: ModelParams) -> float:
    """``(lam/zeta) sum_{known pixels} |u - f|^zeta``; f is ignored on damaged pixels."""
    u, f, mask = _shape_check(u, f, mask)
    return _total(_fidelity_field(channel_norms(u - f), mask, params))


def _evaluated(u, f, mask, params: ModelParams) -> _Plan:
    """A plan for the checked arrays with the pixel energies of u in its ``energy``."""
    u, f, mask = _shape_check(u, f, mask)
    plan = _Plan(f, mask, params)
    plan.evaluate(_plane_rows(u, (2, 0, 1)), plan.energy)
    return plan


# An overflowing sum or norm is inf, and phi's inf - inf at an inf norm is a
# nan pixel energy, which ``_energy_total`` maps to inf.
@np.errstate(over="ignore", invalid="ignore")
def primal_energy(u, f, mask, params: ModelParams) -> float:
    """Density term plus fidelity; with ``delta = 0`` this is the target energy."""
    return _energy_total(_evaluated(u, f, mask, params).energy)


@np.errstate(over="ignore", invalid="ignore")  # the energy's, as in ``primal_energy``
def euler_residual(u, f, mask, params: ModelParams) -> np.ndarray:
    """Exact gradient of ``primal_energy`` with respect to every pixel value.

    ``-div(DF_delta(grad u)) + lam * 1_known * |u-f|^(zeta-2) (u-f)``, the
    fidelity factor taken as 0 at u = f when zeta < 2 (its continuous limit).
    """
    plan = _evaluated(u, f, mask, params)
    plan.residual(np.empty(plan.dev_rows.shape))
    return plan.dev
