"""Pixel-lattice fields, damage masks, and the gradient/divergence pair.

Conventions used throughout the package:

* image fields are float64 arrays of shape ``(height, width, channels)``;
* damage masks are bool arrays of shape ``(height, width)``, True = damaged;
* gradient-like fields are float64 arrays of shape ``(height, width, 2, M)``
  holding one 2 x M matrix per pixel, component 0 the forward difference
  along x (width), component 1 along y (height), pixel spacing 1.

In memory the fields are channel-planar: ``gradient`` fills stitched rows
``(2, M, height*width)`` and ``divergence`` rows ``(M, height*width)``, each
plane's rows end to end, and each returns the view with the public shape
(``_unstitched``), so every (component, channel) pair is one contiguous
``(height, width)`` plane.  Continuation takes f planar (``_planar``).  numpy's
elementwise operations keep the memory order of their inputs, so the fields
derived from these stay planar, and the per-plane loop of ``_sum_products``
(every norm, the dual's ``d . f``) runs over contiguous memory instead of
3-wide strided rows.  At M = 1 a planar image is the same memory as a
row-major one.  The differences are taken on the stitched rows of the input
(``_plane_rows``), a view that planar and row-major arrays and their row
bands ``x[a:b]`` all have and a copy for any other input, by
``_gradient_rows`` and ``_divergence_rows``, which then rewrite the edge
column; ``energy._Plan`` binds its rows once per solve and calls the same
two kernels.

The public entry points check all their inputs here, once per call: arrays by
``_image_check`` (every image), ``_shape_check`` and ``_field_check``, L by
``_sup_known``, and every scalar setting or argument by ``_scalar_check``.

``divergence`` is the exact negative adjoint of ``gradient``:
``<gradient(u), p> == -<u, divergence(p)>`` for every u and p, which is the
identity the discrete Euler equation and the dual functional are built on.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "gradient",
    "divergence",
    "clamp_to_ball",
    "channel_norms",
    "pixel_norms",
]


def _planar(u) -> np.ndarray:
    """The (H, W, M) array u as channel-planar floats, copied unless it is already."""
    return np.ascontiguousarray(np.asarray(u, dtype=float).transpose(2, 0, 1)).transpose(1, 2, 0)


def _finite(u: np.ndarray, name: str) -> np.ndarray:
    """u itself, if every entry is finite."""
    if not np.isfinite(u).all():
        raise ValueError(f"{name} contains non-finite entries")
    return u


def _scalar_check(x, name: str, low: float, closed: bool = False) -> float:
    """float(x), if x is a finite real number, not a bool, above low (at least low if closed)."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value) and (value >= low if closed else value > low):
            return value
    raise ValueError(f"{name} must be a finite real {'>=' if closed else '>'} {low!r}, got {x!r}")


def _bool_mask(mask, shape) -> np.ndarray:
    """mask as an array, if it is 2-d bool and on the grid of an image of the given shape."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.ndim != 2:
        raise ValueError(f"mask must be a 2-d bool array, got {mask.dtype}/{mask.ndim}d")
    if len(shape) != 3 or mask.shape != shape[:2]:
        raise ValueError(f"mask shape {mask.shape} is not the grid of image shape {shape}")
    return mask


def _image_check(u, name: str) -> np.ndarray:
    """u as an array, if it is a finite (H, W, M) image with every side at least 1."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or min(u.shape) < 1:
        raise ValueError(f"{name} must have shape (height, width, channels), got {u.shape}")
    return _finite(u, name)


def _shape_check(u, f, mask):
    """f and u, unless None, images (``_image_check``) of one shape; mask 2-d bool on f's grid.

    Accepts a mask damaging every pixel; the entry points that need L or the
    known values reject it through ``_known``.
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
    """L, the largest channel norm of f over known pixels, if finite; the arrays as checked.

    The root of the largest squared norm (``_sum_products``): sqrt is
    correctly rounded and monotone, so that is the largest ``channel_norms``.
    """
    with np.errstate(over="ignore"):  # an overflow is rejected below
        sup_f = math.sqrt(np.max(_known(_sum_products(f, f), mask)))
    if sup_f == math.inf:
        raise ValueError("known-pixel norm L of f overflows: |f|^2 must stay below the float max")
    return sup_f


def _check_bound(f, mask, bound) -> float:
    """The ball radius as a float, if at least L (``_sup_known``) up to rounding."""
    return _scalar_check(bound, "bound", _sup_known(f, mask) * (1.0 - 1e-12), closed=True)


def _sum_products(x, y, out=None, temp=None) -> np.ndarray:
    """``sum_k x[..., k] y[..., k]``, summed in the order k = 0, 1, ...

    The package's one per-pixel sum over the last axis.  It is elementwise in
    a fixed order, so its bits do not depend on the memory layout of x and y.
    ``out`` receives the sum and ``temp`` each product after the first, both
    of the per-pixel shape; each is allocated when None.
    """
    acc = np.multiply(x[..., 0], y[..., 0], out=out)
    for k in range(1, x.shape[-1]):
        acc += np.multiply(x[..., k], y[..., k], out=temp)
    return acc


def _root_sum_squares(x, out=None, temp=None) -> np.ndarray:
    """``sqrt(sum_k x[..., k]**2)``, the sum by ``_sum_products``, the root in place of ``out``."""
    return np.sqrt(_sum_products(x, x, out, temp), out=out)


def channel_norms(u) -> np.ndarray:
    """Per-pixel Euclidean norm over channels: (H, W, M) -> (H, W)."""
    return _root_sum_squares(np.asarray(u, dtype=float))


def pixel_norms(p) -> np.ndarray:
    """Per-pixel Frobenius norm: (H, W, 2, M) -> (H, W), (i, k) in row-major order."""
    p = np.asarray(p, dtype=float)
    return _root_sum_squares(p.reshape(p.shape[:-2] + (-1,)))


def _plane_rows(x, axes) -> np.ndarray:
    """``x.transpose(axes)``, each plane's rows end to end: a view if one exists, else a copy."""
    planes = x.transpose(axes)
    return planes.reshape(planes.shape[:-2] + (-1,))


def _unstitched(rows, h: int, w: int) -> np.ndarray:
    """The (H, W, ...) view of the stitched rows (..., H*W) of an h x w grid."""
    planes = rows.reshape(rows.shape[:-1] + (h, w))
    n = planes.ndim
    return planes.transpose(n - 2, n - 1, *range(n - 2))


def gradient(u) -> np.ndarray:
    """Forward differences with zero one-sided difference at the far edges.

    Returns the (H, W, 2, M) view (``_unstitched``) of stitched rows
    (2, M, H*W), filled by ``_gradient_rows`` from u's rows (``_plane_rows``).
    """
    u = np.asarray(u, dtype=float)
    h, w, m = u.shape
    gs = np.empty((2, m, h * w))
    _gradient_rows(_plane_rows(u, (2, 0, 1)), gs, w)
    return _unstitched(gs, h, w)


def _gradient_rows(us, gs, w: int) -> None:
    """``gradient`` of the stitched rows us (M, H*W) into gs (2, M, H*W), grid width w.

    Each difference is one pass over a plane's rows stitched end to end: the
    x-difference then also takes each row's last pixel from the next row's
    first, and that column is zeroed after.
    """
    gx, gy = gs[0], gs[1]
    np.subtract(us[:, 1:], us[:, :-1], out=gx[:, :-1])
    gx[:, w - 1 :: w].fill(0.0)
    np.subtract(us[:, w:], us[:, :-w], out=gy[:, :-w])
    gy[:, -w:].fill(0.0)


def divergence(p) -> np.ndarray:
    """Negative adjoint of ``gradient``; backward differences with truncation.

    Entries in the last column's x-component and last row's y-component are
    never read (the gradient's range has them zero).  Returns the (H, W, M)
    view of stitched rows (M, H*W), filled by ``_divergence_rows``.
    """
    p = np.asarray(p, dtype=float)
    h, w, _, m = p.shape
    d = _divergence_rows(_plane_rows(p, (2, 3, 0, 1)), np.empty((m, h * w)), w)
    return _unstitched(d, h, w)


def _divergence_rows(ps, d, w: int) -> np.ndarray:
    """``divergence`` of the stitched rows ps (2, M, H*W) into d (M, H*W), grid width w; d returned.

    As in ``_gradient_rows``, each difference is one pass over stitched rows;
    the x-difference's edge columns are then rewritten: column 0 to ``px``
    and the last to ``0.0 - px`` of the column before it.  That last one is a
    subtraction, not ``np.negative``, which keeps the sign of a zero as
    ``0.0 - x`` does and never writes a strided ``out`` from ``np.negative``
    (numpy 2.4.6 reads a 64-byte-strided input as contiguous there).
    """
    px, py = ps[0], ps[1]
    np.subtract(px[:, 1:], px[:, :-1], out=d[:, 1:])
    if w > 1:
        d[:, ::w] = px[:, ::w]
        np.subtract(0.0, px[:, w - 2 :: w], out=d[:, w - 1 :: w])
    else:
        d.fill(0.0)
    top, below = d[:, :-w], d[:, w:]
    np.add(top, py[:, :-w], out=top)
    np.subtract(below, py[:, :-w], out=below)
    return d


def clamp_to_ball(u, radius: float) -> np.ndarray:
    """Project each pixel's channel vector onto the ball of the given radius.

    The radius is a finite real >= 0, not a bool (``_scalar_check``).
    """
    radius = _scalar_check(radius, "radius", 0.0, closed=True)
    return _clamp_in_place(np.array(u, dtype=float), radius)


def _clamp_in_place(u: np.ndarray, radius: float) -> np.ndarray:
    """``clamp_to_ball(u, radius)`` written over the float array u, which is returned.

    A pixel is scaled by ``radius/|u|`` where its norm exceeds the radius.
    Where that norm overflows to inf, the scale is ``radius/m/|u/m|`` instead,
    m the pixel's largest ``|entry|``, so the pixel still lands on the sphere.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = channel_norms(u)
        scale = np.where(norms > radius, radius / norms, 1.0)
        huge = np.isinf(norms)
        if huge.any():
            pixels = u[huge]
            top = np.maximum.reduce(np.abs(pixels), axis=-1)
            scale[huge] = radius / top / channel_norms(pixels / top[:, None])
    return np.multiply(u, scale[..., None], out=u)
