"""Pixel-lattice fields, damage masks, and the gradient/divergence pair.

Conventions used throughout the package:

* image fields are float64 arrays of shape ``(height, width, channels)``;
* damage masks are bool arrays of shape ``(height, width)``, True = damaged;
* gradient-like fields are float64 arrays of shape ``(height, width, 2, M)``
  holding one 2 x M matrix per pixel, component 0 the forward difference
  along x (width), component 1 along y (height), pixel spacing 1.

In memory the fields are channel-planar: ``gradient`` fills a
``(2, M, height, width)`` buffer and ``divergence`` an ``(M, height, width)``
one, and each returns the transposed view with the public shape, so every
(component, channel) pair is one contiguous ``(height, width)`` plane.
``validate_image`` and ``solver.minimize_smooth`` take a solve's inputs
planar (``_planar``).  numpy's elementwise operations keep the memory order
of their inputs, so the fields derived from these stay planar, and the
per-plane loop of ``_sum_products`` (every norm, the dual's ``d . f``) runs
over contiguous memory instead of 3-wide strided rows.  At M = 1 a planar
image is the same memory as a row-major one.

The public entry points check their arrays here, once per call (``_image_check``
for every image, ``_shape_check``, ``_field_check``, ``_check_bound``; L by ``_sup_known``).

``divergence`` is the exact negative adjoint of ``gradient``:
``<gradient(u), p> == -<u, divergence(p)>`` for every u and p, which is the
identity the discrete Euler equation and the dual functional are built on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gradient",
    "divergence",
    "clamp_to_ball",
    "channel_norms",
    "pixel_norms",
    "validate_image",
    "validate_mask",
]


def _planar(u) -> np.ndarray:
    """The (H, W, M) array u as channel-planar floats, copied unless it is already."""
    return np.ascontiguousarray(np.asarray(u, dtype=float).transpose(2, 0, 1)).transpose(1, 2, 0)


def _finite(u: np.ndarray, name: str) -> np.ndarray:
    """u itself, if every entry is finite."""
    if not np.isfinite(u).all():
        raise ValueError(f"{name} contains non-finite entries")
    return u


def _bool_mask(mask, shape=None) -> np.ndarray:
    """mask as an array, if it is 2-d bool and on the grid of an image of the given shape."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 2:
        raise ValueError(f"mask must be a 2-d bool array, got {mask.dtype}/{mask.ndim}d")
    if shape is not None and (len(shape) != 3 or mask.shape != shape[:2]):
        raise ValueError(f"mask shape {mask.shape} is not the grid of image shape {shape}")
    return mask


def _image_check(u, name: str) -> np.ndarray:
    """u as an array, if it is a finite (H, W, M) image with every side at least 1."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or min(u.shape) < 1:
        raise ValueError(f"{name} must have shape (height, width, channels), got {u.shape}")
    return _finite(u, name)


def validate_image(u, name="image") -> np.ndarray:
    """Check an image (``_image_check``); return it channel-planar (``_planar``)."""
    return _planar(_image_check(u, name))


def validate_mask(mask, image=None) -> np.ndarray:
    mask = _bool_mask(mask, None if image is None else np.shape(image))
    if mask.all():
        raise ValueError(_ALL_DAMAGED)
    return mask


def _shape_check(u, f, mask):
    """f and u, unless None, images (``_image_check``) of one shape; mask 2-d bool on f's grid.

    Unlike ``validate_mask``, accepts a mask damaging every pixel; the
    entry points that need L or the known values reject it through ``_known``.
    """
    f = _image_check(f, "f")
    mask = _bool_mask(mask, f.shape)
    if u is not None:
        u = _image_check(u, "u")
        if u.shape != f.shape:
            raise ValueError(f"u shape {u.shape} != f shape {f.shape}")
    return u, f, mask


def _field_check(p, f) -> np.ndarray:
    """p as an array, if it is finite and of shape (H, W, 2, M) for f's (H, W, M)."""
    p = np.asarray(p, dtype=float)
    if p.shape != f.shape[:2] + (2,) + f.shape[2:]:
        raise ValueError(f"field shape {p.shape} is not (height, width, 2, M) of f {f.shape}")
    return _finite(p, "field")


_ALL_DAMAGED = "mask damages the entire domain; at least one pixel must be known"


def _known(x, mask) -> np.ndarray:
    """``x[~mask]``, the known pixels of x; rejects a mask that damages every pixel."""
    known = x[~mask]
    if len(known) == 0:
        raise ValueError(_ALL_DAMAGED)
    return known


def _sup_known(f, mask) -> float:
    """L, the largest channel norm of f over known pixels, if finite; the arrays as checked."""
    with np.errstate(over="ignore"):  # an overflow is rejected below
        sup_f = float(np.max(_known(channel_norms(f), mask)))
    if sup_f == np.inf:
        raise ValueError("known-pixel norm L of f overflows: |f|^2 must stay below the float max")
    return sup_f


def _check_bound(f, mask, bound: float) -> None:
    """Reject a ball radius that is not finite or is below L (``_sup_known``)."""
    sup_f = _sup_known(f, mask)
    if not sup_f * (1.0 - 1e-12) <= bound < np.inf:
        raise ValueError(f"bound {bound} is not finite or below the known-pixel sup {sup_f}")


def _sum_products(x, y) -> np.ndarray:
    """``sum_k x[..., k] y[..., k]``, summed in the order k = 0, 1, ...

    The package's one per-pixel sum over the last axis.  It is elementwise in
    a fixed order, so its bits do not depend on the memory layout of x and y.
    """
    acc = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        acc += x[..., k] * y[..., k]
    return acc


def _root_sum_squares(x) -> np.ndarray:
    """``sqrt(sum_k x[..., k]**2)``, the sum by ``_sum_products``."""
    return np.sqrt(_sum_products(x, x))


def channel_norms(u) -> np.ndarray:
    """Per-pixel Euclidean norm over channels: (H, W, M) -> (H, W)."""
    return _root_sum_squares(np.asarray(u, dtype=float))


def pixel_norms(p) -> np.ndarray:
    """Per-pixel Frobenius norm: (H, W, 2, M) -> (H, W), (i, k) in row-major order."""
    p = np.asarray(p, dtype=float)
    return _root_sum_squares(p.reshape(p.shape[:-2] + (-1,)))


def gradient(u) -> np.ndarray:
    """Forward differences with zero one-sided difference at the far edges.

    Returns the (H, W, 2, M) view of a (2, M, H, W) buffer.
    """
    u = np.asarray(u, dtype=float).transpose(2, 0, 1)
    m, h, w = u.shape
    g = np.empty((2, m, h, w))
    np.subtract(u[:, :, 1:], u[:, :, :-1], out=g[0, :, :, :-1])
    g[0, :, :, -1] = 0.0
    np.subtract(u[:, 1:, :], u[:, :-1, :], out=g[1, :, :-1, :])
    g[1, :, -1, :] = 0.0
    return g.transpose(2, 3, 0, 1)


def divergence(p) -> np.ndarray:
    """Negative adjoint of ``gradient``; backward differences with truncation.

    Entries in the last column's x-component and last row's y-component are
    never read (the gradient's range has them zero).  Returns the (H, W, M)
    view of an (M, H, W) buffer.
    """
    px, py = np.asarray(p, dtype=float).transpose(2, 3, 0, 1)
    div = np.empty(px.shape)
    div[:, :, :-1] = px[:, :, :-1]
    div[:, :, -1] = 0.0
    div[:, :, 1:] -= px[:, :, :-1]
    div[:, :-1, :] += py[:, :-1, :]
    div[:, 1:, :] -= py[:, :-1, :]
    return div.transpose(1, 2, 0)


def _negative_divergence(p) -> np.ndarray:
    """``-divergence(p)``, negated in place of the divergence's own buffer."""
    div = divergence(p)
    return np.negative(div, out=div)


def clamp_to_ball(u, radius: float) -> np.ndarray:
    """Project each pixel's channel vector onto the ball of the given radius."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    u = np.asarray(u, dtype=float)
    norms = channel_norms(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > radius, radius / norms, 1.0)
    return u * scale[..., None]
