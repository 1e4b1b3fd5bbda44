"""Smooth inner minimization and vanishing-viscosity continuation.

The viscous objective (delta > 0) splits into the density part D, whose
gradient is Lipschitz with ``L <= 8(1 + delta)``, and the pixel-separable
fidelity G, whose prox is exact (``energy._fidelity_prox``), also across the
unbounded curvature of ``|u - f|^zeta`` at u = f for zeta < 2.  The inner
solver is proximal gradient with backtracking from Barzilai-Borwein steps on
D, the long step BB1 and the short step BB2 on alternate iterations (Dai and
Fletcher 2005; inside proximal gradient, SpaRSA: Wright, Nowak and
Figueiredo 2009), one step path for every zeta > 1; the contract is descent
plus a residual tolerance, not a step count.  A trial step at or below 1/L that
finds no descent, which only rounding can cause, ends the solve as
``stagnated`` at the last accepted iterate.

``continuation`` drives delta down a geometric schedule with warm starts,
solves each level only as accurately as its viscous bias warrants, and stops
at the first certificate whose relative duality gap clears ``gap_tol``
(or when the schedule bottoms out at ``delta_min``).  Every level, however
its inner solve stopped, ends in a certificate, and so does every call.
"""

from __future__ import annotations

import math
import time
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dual import certify
from .energy import ModelParams, _fidelity_prox, _Point
from .grid import _known, _planar, _shape_check, _sup_known
from .grid import channel_norms, validate_image, validate_mask

__all__ = [
    "SolverConfig",
    "ConvergenceRecord",
    "InnerResult",
    "MaxPrincipleCheck",
    "minimize_smooth",
    "continuation",
    "check_max_principle",
    "default_initial",
]

_STEP_MAX = 1e4


@dataclass(frozen=True)
class SolverConfig:
    """Viscosity schedule, tolerances and the inner iteration cap.

    ``inner_tol`` is the floor of the inner residual tolerance:
    ``continuation`` solves level delta to ``max(inner_tol, gap_tol * delta)``
    times ``1 + sup_known |f|``, ``minimize_smooth`` to ``inner_tol`` itself.
    """

    delta0: float = 0.1
    delta_min: float = 1e-8
    delta_factor: float = 0.1
    inner_tol: float = 1e-8
    inner_max_iters: int = 5000
    gap_tol: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.delta_min <= self.delta0 < math.inf):
            raise ValueError("need 0 < delta_min <= delta0 < inf")
        if not (0.0 < self.delta_factor < 1.0):
            raise ValueError("need 0 < delta_factor < 1")
        if not (self.inner_tol > 0.0 and self.gap_tol > 0.0):
            raise ValueError("tolerances must be positive")
        n = self.inner_max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"inner_max_iters must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One outer continuation step, for observability of the delta -> 0 limit.

    ``stop_reason`` and ``evaluations`` are the level's ``InnerResult`` fields.
    """

    delta: float
    inner_iterations: int
    I_delta_value: float
    I_value: float
    dual_value: float
    relative_gap: float
    residual_inf_norm: float
    max_abs_u: float
    wall_seconds: float
    stop_reason: str
    evaluations: int


@dataclass
class InnerResult:
    """Outcome of one inner solve.

    ``stop_reason`` says why it stopped: ``residual`` (tolerance met), ``cap``
    (``inner_max_iters`` reached) or ``stagnated`` (a trial step at or below
    ``1/L = 1/(8(1 + delta))`` failed to lower the energy, which only
    rounding can cause; ``u`` is the last accepted iterate).  ``evaluations``
    counts the candidate points evaluated, accepted or not; ``energy_history``
    the energy at the start and after each accepted step, the last that of
    ``u``.  Derived: ``converged``, i.e. ``stop_reason == "residual"``.
    """

    u: np.ndarray
    iterations: int
    residual_inf: float
    stop_reason: str
    evaluations: int
    energy_history: list

    @property
    def converged(self) -> bool:
        return self.stop_reason == "residual"


@dataclass(frozen=True)
class MaxPrincipleCheck:
    """``margin = L - sup |u|``, ``bound = L``; derived: ``passed``, i.e. ``margin >= -1e-8``."""

    margin: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.margin >= -1e-8


def check_max_principle(u, f, mask) -> MaxPrincipleCheck:
    """Compare ``sup |u|`` with L, the largest known-pixel |f| (``MaxPrincipleCheck``)."""
    u, f, mask = _shape_check(u, f, mask)
    bound = _sup_known(f, mask)
    return MaxPrincipleCheck(margin=bound - float(np.max(channel_norms(u))), bound=bound)


def default_initial(f, mask) -> np.ndarray:
    """f on known pixels, per-channel mean of the known values on damaged ones.

    The mean is clipped to the per-channel known range, so constant known data
    fill the holes with exactly that constant: the minimizer itself.  The
    result has the memory layout of f.
    """
    _, f, mask = _shape_check(None, f, mask)
    u0 = f.copy(order="K")
    if mask.any():
        known = _known(f, mask)
        u0[mask] = np.clip(known.mean(axis=0), known.min(axis=0), known.max(axis=0))
    return u0


def _linf(g) -> float:
    return float(np.max(np.abs(g)))


def minimize_smooth(u0, delta, f, mask, params: ModelParams, cfg: SolverConfig) -> InnerResult:
    """Minimize the viscous energy at fixed delta > 0 from the start u0.

    Stops when the sup-norm of the residual falls below
    ``inner_tol * (1 + sup_known |f|)``, after ``inner_max_iters``
    iterations, or when a trial step at or below ``1/L`` fails to lower the
    energy (``stop_reason`` says which); ``delta`` overrides ``params.density.delta``.

    Each iteration takes ``cand = prox_{gamma G}(u - gamma grad D(u))`` and
    halves gamma until the energy falls by at least ``|cand - u|^2/(2 gamma)``.
    By the descent lemma that holds for every gamma <= 1/L in exact
    arithmetic, ``L = 8(1 + delta)``, so a trial at or below 1/L that fails
    ends the solve instead of halving further.  The test runs on the sum of the
    per-pixel energy differences, free of the cancellation between two large
    totals; a candidate that passes it is accepted only if its exact total is
    also strictly below the current one, so every accepted step strictly
    decreases the energy.

    The first iteration starts from gamma = 1.0, each later one from a
    Barzilai-Borwein step on the last accepted move ``s = cand - u`` and
    ``y = grad D(cand) - grad D(u)``, capped at 1e4: ``BB1 = s.s/s.y``
    after an odd iteration, ``BB2 = s.y/y.y <= BB1`` after an even one, and
    twice the accepted gamma when ``s.y <= 0``.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    pd = params.with_delta(float(delta))
    u, f, mask = _shape_check(u0, f, mask)
    # Planar copies fix the memory order in which the step sums below reduce.
    u, f = np.array(_planar(u), copy=True), _planar(f)
    tol = cfg.inner_tol * (1.0 + _sup_known(f, mask))
    min_step = 1.0 / (8.0 * (1.0 + pd.density.delta))

    at_u = _Point(u, f, mask, pd)
    res = _linf(at_u.residual())
    history = [at_u.total]

    step = 1.0
    iters = evaluations = 0
    stop_reason = None
    while res > tol and iters < cfg.inner_max_iters:
        iters += 1
        step = min(step, _STEP_MAX)
        while True:
            cand = _fidelity_prox(u - step * at_u.density_residual, f, mask, pd, step)
            s = cand - u
            ss = float(np.sum(s * s))
            at_cand = _Point(cand, f, mask, pd)
            evaluations += 1
            change = float(np.sum(at_cand.pixel_energy - at_u.pixel_energy))
            if change <= -ss / (2.0 * step) and at_cand.total < at_u.total:
                break
            if not step > min_step:  # also ends on a non-finite step
                stop_reason = "stagnated"
                break
            step *= 0.5
        if stop_reason is not None:
            break

        res = _linf(at_cand.residual())
        # Barzilai-Borwein trial step from the density curvature alone; the
        # fidelity is handled exactly by the prox.  s.y > 0 implies y.y > 0.
        # Deleting s and y keeps them from staying allocated through the next
        # iteration's trial points, which otherwise fault in fresh pages.
        y = at_cand.density_residual - at_u.density_residual
        sy = float(np.sum(s * y))
        if sy > 0.0:
            step = ss / sy if iters % 2 else sy / float(np.sum(y * y))
        else:
            step = 2.0 * step
        del s, y
        u, at_u = cand, at_cand
        history.append(at_u.total)

    if stop_reason is None:
        stop_reason = "residual" if res <= tol else "cap"
    return InnerResult(
        u=u,
        iterations=iters,
        residual_inf=res,
        stop_reason=stop_reason,
        evaluations=evaluations,
        energy_history=history,
    )


def continuation(f, mask, params: ModelParams, cfg: SolverConfig, u0=None):
    """Solve along delta = delta0, delta0*factor, ... >= delta_min with warm starts.

    Returns ``(u, certificate, records)``.  Stops early at the first relative
    gap <= ``cfg.gap_tol``.  ``u0`` overrides the deterministic initial guess
    (useful for multi-start uniqueness checks).

    Level delta is solved to the residual ``max(inner_tol, gap_tol * delta)
    * (1 + L)``, L the largest known-pixel norm: its viscous bias is O(delta),
    so a level above the target gap is only a warm start for the next one and
    needs no more accuracy than the certificate asks for.  ``inner_tol`` is
    the floor.  The certificate, not the residual, decides when to stop; it
    is taken with the level's delta, so its dual side can use the viscous
    flux of that level (``dual.certify``).

    f and u0 are taken channel-planar (``grid.validate_image``) for the
    solve; the returned u is C-contiguous.
    """
    f = validate_image(f, name="f")
    mask = validate_mask(mask, image=f)
    bound = _sup_known(f, mask)

    u = default_initial(f, mask) if u0 is None else validate_image(u0, name="u0")
    records = []
    delta = cfg.delta0
    while True:
        t0 = time.perf_counter()
        level_cfg = replace(cfg, inner_tol=max(cfg.inner_tol, cfg.gap_tol * delta))
        inner = minimize_smooth(u, delta, f, mask, params, level_cfg)
        u = inner.u
        cert = certify(u, f, mask, params.with_delta(delta), bound)
        records.append(
            ConvergenceRecord(
                delta=delta,
                inner_iterations=inner.iterations,
                I_delta_value=inner.energy_history[-1],
                I_value=cert.primal_value,
                dual_value=cert.dual_value,
                relative_gap=cert.relative_gap,
                residual_inf_norm=inner.residual_inf,
                max_abs_u=float(np.max(channel_norms(u))),
                wall_seconds=time.perf_counter() - t0,
                stop_reason=inner.stop_reason,
                evaluations=inner.evaluations,
            )
        )
        if cert.relative_gap <= cfg.gap_tol:
            break
        next_delta = delta * cfg.delta_factor
        if next_delta < cfg.delta_min * (1.0 - 1e-12):
            break
        delta = next_delta
    return np.ascontiguousarray(u), cert, records
