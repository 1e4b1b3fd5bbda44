"""Independent ground-truth implementations used only by tests.

Nothing here reuses the closed forms or the solver: the density is rebuilt
from its defining double integral by adaptive quadrature and the desk-scale
minimizer is a cyclic coordinate search.  Agreement between this module and
the main path is what the tests certify.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from viscotv.energy import primal_energy

__all__ = ["phi_by_quadrature", "brute_force_minimize", "fd_gradient"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _adaptive_simpson(func, a, b, tol, max_depth=60):
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = func(lmid)
        fr = func(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol, depth - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, 0.5 * tol, depth - 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = func(a), func(0.5 * (a + b)), func(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def phi_by_quadrature(mu: float, t: float, tol: float = 1e-11) -> float:
    """The density's defining double integral of (1+r)**(-mu), by adaptive Simpson.

    Fubini collapses the double integral exactly to
    ``int_0^t (t - r)(1 + r)**(-mu) dr``; the integrand stays the defining one.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if mu <= 1.0:
        raise ValueError("mu must be > 1")
    if t == 0.0:
        return 0.0
    eff_tol = tol * min(1.0, t * t)
    return _adaptive_simpson(lambda r: (t - r) * (1.0 + r) ** (-mu), 0.0, t, eff_tol)


def _phi_prime_by_quadrature(mu, t, tol=1e-12):
    """Inner integral of the defining double integral, again by quadrature."""
    if t == 0.0:
        return 0.0
    return _adaptive_simpson(lambda r: (1.0 + r) ** (-mu), 0.0, t, tol)


_SPLINE_CACHE = {}


def _phi_spline(mu: float, t_max: float):
    """Quadrature-sourced clamped cubic spline for fast oracle energy sums.

    Returned as a plain-Python scalar evaluator; the knot spacing keeps the
    interpolation error orders of magnitude below the oracle tolerances.
    """
    key = (mu, math.ceil(t_max * 4.0) / 4.0)
    if key not in _SPLINE_CACHE:
        hi = key[1]
        n = int(hi / 0.005) + 2
        knots = np.linspace(0.0, hi, n)
        values = [phi_by_quadrature(mu, t) for t in knots]
        spline = CubicSpline(
            knots,
            values,
            bc_type=((1, 0.0), (1, _phi_prime_by_quadrature(mu, hi))),
        )
        coeffs = spline.c.T.tolist()  # row i: cubic on [knots[i], knots[i+1]]
        h = float(knots[1] - knots[0])
        last = n - 2

        def evaluate(t, _c=coeffs, _h=h, _last=last):
            i = int(t / _h)
            if i > _last:
                i = _last
            c0, c1, c2, c3 = _c[i]
            dt = t - i * _h
            return ((c0 * dt + c1) * dt + c2) * dt + c3

        _SPLINE_CACHE[key] = evaluate
    return _SPLINE_CACHE[key]


def _oracle_energy(u, f, mask, lam, zeta, phi_fn):
    """Direct per-definition summation; forward differences written out by hand."""
    h, w = u.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            dx = u[y, x + 1] - u[y, x] if x + 1 < w else 0.0
            dy = u[y + 1, x] - u[y, x] if y + 1 < h else 0.0
            total += phi_fn(math.hypot(dx, dy))
            if not mask[y, x]:
                total += lam / zeta * abs(u[y, x] - f[y, x]) ** zeta
    return total


def _golden_section(fun, lo, hi, xtol=1e-6):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def brute_force_minimize(f, mask, params, bound: float):
    """Global minimizer of the delta = 0 energy by exhaustive coordinate search.

    Coordinate-wise grid search over [-bound, bound] at resolution 1e-2,
    then cyclic golden-section refinement to 1e-6 per coordinate.  Only for
    desk-scale instances: at most 8 pixels, single channel.
    """
    f = np.asarray(f, dtype=float)
    mask = np.asarray(mask)
    if f.ndim == 3:
        if f.shape[2] != 1:
            raise ValueError("brute force handles single-channel fields only")
        f = f[:, :, 0]
    h, w = f.shape
    if h * w > 8:
        raise ValueError(f"instance has {h * w} unknowns; the cap is 8")

    phi_fn = _phi_spline(params.density.mu, 2.0 * bound * math.sqrt(2.0) + 0.01)
    lam, zeta = params.lam, params.zeta
    energy = lambda u: _oracle_energy(u, f, mask, lam, zeta, phi_fn)

    coords = [(y, x) for y in range(h) for x in range(w)]
    u = np.zeros((h, w))
    grid = np.linspace(-bound, bound, int(round(2.0 * bound / 1e-2)) + 1).tolist()

    for _ in range(500):
        changed = False
        for y, x in coords:
            old = u[y, x]
            best_v, best_e = old, energy(u)
            for v in grid:
                u[y, x] = v
                e = energy(u)
                if e < best_e:
                    best_v, best_e = v, e
            u[y, x] = best_v
            if best_v != old:
                changed = True
        if not changed:
            break

    for _ in range(200):
        biggest = 0.0
        for y, x in coords:

            def along(v, _y=y, _x=x):
                u[_y, _x] = v
                return energy(u)

            old = u[y, x]
            u[y, x] = _golden_section(along, -bound, bound)
            biggest = max(biggest, abs(u[y, x] - old))
        if biggest < 1e-7:
            break

    return u[:, :, None], energy(u)


def fd_gradient(u, f, mask, params, step: float) -> np.ndarray:
    """Central finite differences of the primal energy, per pixel and channel."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    it = np.nditer(u, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = u.copy()
        dn = u.copy()
        up[idx] += step
        dn[idx] -= step
        out[idx] = (
            primal_energy(up, f, mask, params) - primal_energy(dn, f, mask, params)
        ) / (2.0 * step)
    return out
