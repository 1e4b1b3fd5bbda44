"""Discrete primal energies and their exact first variation.

The objective is ``sum_pixels F_delta(grad u) + (lam/zeta) sum_known |u - f|^zeta``
with the channel-Euclidean norm per pixel and the damaged pixels carrying no
fidelity.  ``euler_residual`` is its gradient with respect to every pixel
value, exact to floating precision, so a vanishing residual characterizes the
(unique, delta > 0) minimizer.

``_Point`` evaluates one point: it computes ``gradient(u)``, ``u - f``, the
pixel norms and the deviation norms once and shares them between the
per-pixel energy field, the gradient of the density part and the residual;
``primal_energy`` and ``euler_residual`` are built on it.  ``_fidelity_prox``
is the exact proximal map of the fidelity, which is pixel-separable and
radial, so it reduces to one scalar root per known pixel.  Both write their
image- and gradient-sized results into buffers the caller may pass
(``solver.minimize_smooth`` passes the same ones at every iteration) and
allocate them otherwise, with the same bits either way.

Scalar reductions use ``_fsum``, a compensated sum in a fixed block order for
a given size: ``np.sum`` over consecutive 64-element blocks of the row-major
values, then ``math.fsum`` over the block totals and the tail.  The per-pixel
norms (``grid.channel_norms``, ``grid.pixel_norms``) sum the squares of their
components one by one in a fixed order (``grid._sum_products``).  Energies are
therefore reproducible bit for bit for a given grid, whatever the memory
layout of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import DensityParams, density_gradient, density_value
from .grid import _negative_divergence, _scalar_check, _shape_check
from .grid import channel_norms, gradient, pixel_norms

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


_FSUM_BLOCK = 64


def _fsum(values) -> float:
    """Sum in a fixed order: ``np.sum`` per 64-element block, ``math.fsum`` of those.

    A total beyond the float range is returned as inf of its sign.  numpy
    warns when a block sum overflows; the public entry points that sum ignore
    that warning once per call (``np.errstate``, a decorator or, in
    ``certify``, a with-block), not here, where the context would cost about
    half a block sum at every call.
    """
    x = np.asarray(values, dtype=float).ravel()
    cut = x.size - x.size % _FSUM_BLOCK
    blocks = x[:cut].reshape(-1, _FSUM_BLOCK).sum(axis=1)
    parts = blocks.tolist() + x[cut:].tolist()
    try:
        return math.fsum(parts)
    except OverflowError:  # a partial sum of finite parts overflowed
        return math.copysign(math.inf, math.fsum(p * 2.0**-64 for p in parts))


def _energy_total(pixel_energy) -> float:
    """The exact sum of a pixel energy field, +inf where that sum is nan (``_Point``)."""
    total = _fsum(pixel_energy)
    return math.inf if math.isnan(total) else total


def _fidelity_field(dev_norms, mask, params: ModelParams) -> np.ndarray:
    """``(lam/zeta)|u - f|^zeta`` per known pixel, 0 on damaged pixels."""
    return np.where(mask, 0.0, (params.lam / params.zeta) * dev_norms**params.zeta)


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


def _prox_shrink(a, c, zeta):
    """``r/a`` for the root r >= 0 of ``r + c*r**(zeta-1) = a``, zeta != 2.

    A closed form at zeta = 1.5, Newton otherwise; ``_fidelity_prox`` takes
    zeta = 2 itself.  At zeta = 1.5 the closed form made a 32x32 inpainting
    solve 1.4-2.1x faster than Newton (2-vCPU host, BENCH_4.json).
    """
    if zeta == 1.5:  # sqrt(r) = 2a / (c + sqrt(c^2 + 4a))
        return 4.0 * a / (c + np.sqrt(c * c + 4.0 * a)) ** 2
    return _newton_shrink(a, c, zeta)


def _fidelity_prox(w, f, mask, params: ModelParams, gamma: float, *, out=None) -> np.ndarray:
    """``argmin_v gamma * fidelity(v) + |v - w|^2 / 2``, exact for every zeta > 1.

    On a known pixel ``v = f + (r/a)(w - f)`` with ``a = |w - f|`` and r the
    root of ``r + gamma*lam*r**(zeta-1) = a``; damaged pixels keep w, so f
    there never matters (their shrink is taken at ``a = 0``).  The
    arrays are taken as given: w, f float of one shape, mask boolean (H, W).
    ``out``, if given, is an array of that shape, not sharing memory with w
    or f, that receives the result and is returned.
    """
    prox = np.subtract(w, f, out=out)  # the deviation, shrunk and shifted back in place
    c = gamma * params.lam
    if params.zeta == 2.0:  # r/a = 1/(1 + c) for every a: no deviation norms
        prox *= 1.0 / (1.0 + c)
    else:
        prox *= _prox_shrink(np.where(mask, 0.0, channel_norms(prox)), c, params.zeta)[..., None]
    prox += f
    np.copyto(prox, w, where=mask[..., None])
    return prox


class _Point:
    """The energy of one point u, with the fields its residual needs.

    ``pixel_energy`` is the energy per pixel, shape (H, W); ``total`` is its
    exact sum, taken on first use, and +inf where that sum is nan: for finite
    u and f a pixel energy is nan only where a norm overflowed (``inf - inf``
    in ``phi``, ``0*inf`` in the viscous term), so the energy is beyond the
    float range.  ``residual()`` builds the exact gradient of the energy from
    the cached ``grad``, ``dev = u - f`` and norms: the flux
    ``DF_delta(grad u)`` is written over ``grad``, the divergence negated in
    a buffer of its own, the residual written over ``dev``, and the point
    then drops ``grad``, ``dev`` and the norms.  It also sets
    ``density_residual``, the gradient ``-div DF_delta(grad u)`` of the
    density part alone.  A point kept after its residual holds only
    ``pixel_energy`` and these two fields; it keeps neither u nor f, and the
    arrays are taken as ``grid._shape_check`` returns them.

    ``grad_out`` (H, W, 2, M), ``dev_out`` and ``div_out`` (H, W, M), if
    given, are the buffers that receive ``grad``, ``dev`` (then the residual)
    and ``density_residual``; each is allocated, channel-planar, when None.
    The caller must not reuse a buffer while the point still reads it.
    """

    def __init__(self, u, f, mask, params: ModelParams, grad_out=None, dev_out=None, div_out=None):
        self.mask = mask
        self.params = params
        self.grad = gradient(u, grad_out)
        self.grad_norms = pixel_norms(self.grad)
        self.dev = np.subtract(u, f, out=dev_out)
        self.dev_norms = channel_norms(self.dev)
        self.pixel_energy = density_value(
            params.density, self.grad, norms=self.grad_norms
        ) + _fidelity_field(self.dev_norms, self.mask, params)
        self._div_out = div_out
        self._total = None
        self._residual = None
        self.density_residual = None

    @property
    def total(self) -> float:
        if self._total is None:
            self._total = _energy_total(self.pixel_energy)
        return self._total

    def residual(self) -> np.ndarray:
        if self._residual is None:
            params = self.params
            flux = density_gradient(
                params.density, self.grad, norms=self.grad_norms, out=self.grad
            )
            dev, norms = self.dev, self.dev_norms
            self.grad = self.grad_norms = self.dev = self.dev_norms = None
            self.density_residual = _negative_divergence(flux, self._div_out)
            del flux
            coef = params.lam * (~self.mask)[..., None]
            if params.zeta != 2.0:  # |u - f|^(zeta - 2) is 1 at zeta = 2
                with np.errstate(divide="ignore", invalid="ignore"):
                    scale = np.where((norms > 0.0) & ~self.mask, norms ** (params.zeta - 2.0), 0.0)
                coef = coef * scale[..., None]
            # Built in place; the same bits as density_residual + coef*(u - f).
            dev *= coef
            dev += self.density_residual
            self._residual = dev
        return self._residual


@np.errstate(over="ignore")  # an overflowing sum is inf (``_fsum``)
def fidelity(u, f, mask, params: ModelParams) -> float:
    """``(lam/zeta) sum_{known pixels} |u - f|^zeta``; f is ignored on damaged pixels."""
    u, f, mask = _shape_check(u, f, mask)
    return _fsum(_fidelity_field(channel_norms(u - f), mask, params))


@np.errstate(over="ignore")
def primal_energy(u, f, mask, params: ModelParams) -> float:
    """Density term plus fidelity; with ``delta = 0`` this is the target energy."""
    return _Point(*_shape_check(u, f, mask), params).total


@np.errstate(over="ignore")
def euler_residual(u, f, mask, params: ModelParams) -> np.ndarray:
    """Exact gradient of ``primal_energy`` with respect to every pixel value.

    ``-div(DF_delta(grad u)) + lam * 1_known * |u-f|^(zeta-2) (u-f)``, the
    fidelity factor taken as 0 at u = f when zeta < 2 (its continuous limit).
    """
    return _Point(*_shape_check(u, f, mask), params).residual()
