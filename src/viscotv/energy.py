"""Discrete primal energies and their exact first variation.

The objective is ``sum_pixels F_delta(grad u) + (lam/zeta) sum_known |u - f|^zeta``
with the channel-Euclidean norm per pixel and the damaged pixels carrying no
fidelity.  ``euler_residual`` is its gradient with respect to every pixel
value, exact to floating precision, so a vanishing residual characterizes the
(unique, delta > 0) minimizer.

``_Point`` evaluates one point: it computes ``gradient(u)``, the pixel norms
and the deviation norms once and shares them between the per-pixel energy
field and the residual; ``primal_energy`` and ``euler_residual`` are built on
it.  Scalar reductions use ``_fsum``, a compensated sum in a fixed block
order for a given size: ``np.sum`` over consecutive 64-element blocks of the
row-major values, then ``math.fsum`` over the block totals and the tail.
Energies are therefore reproducible bit for bit for a given grid, whatever
the memory layout of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import DensityParams, density_gradient, density_value
from .grid import channel_norms, divergence, gradient, pixel_norms

__all__ = ["ModelParams", "fidelity", "primal_energy", "euler_residual"]


@dataclass(frozen=True)
class ModelParams:
    """Fidelity weight ``lam`` (> 0), exponent ``zeta`` (> 1) and the density.

    ``eps_fid`` optionally smooths the fidelity norm to
    ``sqrt(|u - f|^2 + eps^2)``; meant for zeta < 2, default off.
    """

    lam: float
    zeta: float
    density: DensityParams
    eps_fid: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a finite real > 0, got {self.lam!r}")
        if not (math.isfinite(self.zeta) and self.zeta > 1.0):
            raise ValueError(f"zeta must be a finite real > 1, got {self.zeta!r}")
        if not (math.isfinite(self.eps_fid) and self.eps_fid >= 0.0):
            raise ValueError(f"eps_fid must be a finite real >= 0, got {self.eps_fid!r}")

    def with_delta(self, delta: float) -> "ModelParams":
        return replace(self, density=DensityParams(self.density.mu, delta))

    def without_viscosity(self) -> "ModelParams":
        return self.with_delta(0.0)


_FSUM_BLOCK = 64


def _fsum(values) -> float:
    """Sum in a fixed order: ``np.sum`` per 64-element block, ``math.fsum`` of those."""
    x = np.asarray(values, dtype=float).ravel()
    cut = x.size - x.size % _FSUM_BLOCK
    blocks = x[:cut].reshape(-1, _FSUM_BLOCK).sum(axis=1)
    return math.fsum(blocks.tolist() + x[cut:].tolist())


def _shape_check(u, f, mask):
    u = np.asarray(u, dtype=float)
    f = np.asarray(f, dtype=float)
    mask = np.asarray(mask)
    if u.shape != f.shape:
        raise ValueError(f"u shape {u.shape} != f shape {f.shape}")
    if mask.shape != u.shape[:2]:
        raise ValueError(f"mask shape {mask.shape} != grid shape {u.shape[:2]}")
    return u, f, mask


def _deviation_norms(dev, params: ModelParams) -> np.ndarray:
    if params.eps_fid > 0.0:
        return np.sqrt(np.sum(dev * dev, axis=-1) + params.eps_fid**2)
    return channel_norms(dev)


def _fidelity_field(dev_norms, mask, params: ModelParams) -> np.ndarray:
    """``(lam/zeta)|u - f|^zeta`` per known pixel, 0 on damaged pixels."""
    return np.where(mask, 0.0, (params.lam / params.zeta) * dev_norms**params.zeta)


class _Point:
    """The energy of one point u, with the fields its residual needs.

    ``pixel_energy`` is the energy per pixel, shape (H, W); ``total`` is its
    exact sum, taken on first use.  ``residual()`` builds the exact gradient
    of the energy from the cached ``grad`` and norms and drops them, so a
    point kept after its residual holds only ``pixel_energy`` and the
    residual.  u and f are kept by reference, not copied.
    """

    def __init__(self, u, f, mask, params: ModelParams):
        self.u, self.f, self.mask = _shape_check(u, f, mask)
        self.params = params
        self.grad = gradient(self.u)
        self.grad_norms = pixel_norms(self.grad)
        self.dev_norms = _deviation_norms(self.u - self.f, params)
        self.pixel_energy = density_value(
            params.density, self.grad, norms=self.grad_norms
        ) + _fidelity_field(self.dev_norms, self.mask, params)
        self._total = None
        self._residual = None

    @property
    def total(self) -> float:
        if self._total is None:
            self._total = _fsum(self.pixel_energy)
        return self._total

    def residual(self) -> np.ndarray:
        if self._residual is None:
            params = self.params
            flux = density_gradient(params.density, self.grad, norms=self.grad_norms)
            norms = self.dev_norms
            self.grad = self.grad_norms = self.dev_norms = None
            g = -divergence(flux)
            del flux
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(norms > 0.0, norms ** (params.zeta - 2.0), 0.0)
            g += params.lam * (~self.mask)[..., None] * scale[..., None] * (self.u - self.f)
            self._residual = g
        return self._residual


def fidelity(u, f, mask, params: ModelParams) -> float:
    """``(lam/zeta) sum_{known pixels} |u - f|^zeta``; f is ignored on damaged pixels."""
    u, f, mask = _shape_check(u, f, mask)
    return _fsum(_fidelity_field(_deviation_norms(u - f, params), mask, params))


def primal_energy(u, f, mask, params: ModelParams) -> float:
    """Density term plus fidelity; with ``delta = 0`` this is the target energy."""
    return _Point(u, f, mask, params).total


def euler_residual(u, f, mask, params: ModelParams) -> np.ndarray:
    """Exact gradient of ``primal_energy`` with respect to every pixel value.

    ``-div(DF_delta(grad u)) + lam * 1_known * |u-f|^(zeta-2) (u-f)``, the
    fidelity factor taken as 0 at u = f when zeta < 2 (its continuous limit).
    """
    return _Point(u, f, mask, params).residual()
