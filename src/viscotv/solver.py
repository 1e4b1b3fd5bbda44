"""Smooth inner minimization and vanishing-viscosity continuation.

The viscous objective (delta > 0) splits into the density part D, whose
gradient is Lipschitz with ``L <= 8(1 + delta)``, and the pixel-separable
fidelity G, whose prox is exact (``energy._fidelity_prox``), also across the
unbounded curvature of ``|u - f|^zeta`` at u = f for zeta < 2.  The inner
solver is proximal gradient with backtracking from Barzilai-Borwein steps on
D, the long step BB1 and the short step BB2 on alternate iterations (Dai and
Fletcher 2005; inside proximal gradient, SpaRSA: Wright, Nowak and
Figueiredo 2009), one step path for every zeta > 1; the contract is descent
plus a residual tolerance, not a step count.  A trial step passes once the
energy falls by the Armijo fraction ``1e-4 |s|^2/gamma`` of the move s
(Nocedal and Wright, Numerical Optimization, 2nd ed., section 3.1), far less
than the descent lemma's ``|s|^2/(2 gamma)``, so fewer of the long BB steps
are halved.  A trial step at or below 1/L that finds no such descent,
which only rounding can cause, ends the solve as ``stagnated`` at the last
accepted iterate.  Each inner solve builds one evaluation plan
(``energy._Plan``) and allocates its image-sized work buffers once, and
every candidate point is then a fixed list of ufunc calls into them, so the
loop makes no large temporaries (``minimize_smooth``).

``continuation`` drives delta down a geometric schedule with warm starts,
solves each level only as accurately as its viscous bias warrants, and stops
at the first certificate whose relative duality gap clears ``gap_tol``
(or when the schedule bottoms out at ``delta_min``).  Every level ends in
the certificate of its iterate and, from the second level on, of a
Richardson point of the last two iterates; the better of the two stands.
How a level splits its solves and when it checks its point is stated once,
in ``continuation``.
"""

from __future__ import annotations

import time
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dual import certify
from .energy import ModelParams, _energy_total, _fidelity_prox, _Plan, _total
from .grid import _clamp_in_place, _known, _planar, _plane_rows, _scalar_check, _unstitched
from .grid import _shape_check, _sup_known, channel_norms, clamp_to_ball

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
_SUFFICIENT_DECREASE = 1e-4  # the Armijo constant c1 (Nocedal and Wright, section 3.1)


@dataclass(frozen=True)
class SolverConfig:
    """Viscosity schedule, tolerances and the inner iteration cap.

    ``inner_tol`` is the floor of the inner residual tolerance:
    ``continuation`` solves level delta to ``max(inner_tol, gap_tol * delta)``
    times ``1 + sup_known |f|``, ``minimize_smooth`` to ``inner_tol`` itself.
    The float settings are finite reals, not bools, stored as floats
    (``grid._scalar_check``): ``0 < delta_min <= delta0``,
    ``0 < delta_factor < 1``, ``inner_tol > 0`` and ``gap_tol > 0``.
    ``inner_max_iters`` is an integer >= 1, not a bool.
    """

    delta0: float = 0.1
    delta_min: float = 1e-8
    delta_factor: float = 0.1
    inner_tol: float = 1e-8
    inner_max_iters: int = 5000
    gap_tol: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "delta_min", _scalar_check(self.delta_min, "delta_min", 0.0))
        delta0 = _scalar_check(self.delta0, "delta0", self.delta_min, closed=True)
        object.__setattr__(self, "delta0", delta0)
        factor = _scalar_check(self.delta_factor, "delta_factor", 0.0)
        object.__setattr__(self, "delta_factor", factor)
        object.__setattr__(self, "inner_tol", _scalar_check(self.inner_tol, "inner_tol", 0.0))
        object.__setattr__(self, "gap_tol", _scalar_check(self.gap_tol, "gap_tol", 0.0))
        if not self.delta_factor < 1.0:
            raise ValueError(f"delta_factor must be < 1, got {self.delta_factor!r}")
        n = self.inner_max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"inner_max_iters must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One outer continuation step, for observability of the delta -> 0 limit.

    A level runs one inner solve or two, by the rule stated in
    ``continuation``.  ``inner_iterations`` and ``evaluations`` are summed
    over them, and ``stop_reason`` is the last one's ``InnerResult`` field,
    or ``"certified"`` when the Richardson point checked after the first of
    two stopped the level.  Every other field but the last describes the
    level's own iterate and its certificate, the delta = 0 problem's
    (``dual.certify``).  ``extrapolated_gap`` is the relative gap of the
    Richardson point of that iterate, None on the first level.  Derived:
    ``better_point``, ``"extrapolated"`` when that gap is strictly below
    ``relative_gap``, else ``"iterate"``: the point ``continuation`` returns
    when it stops here.
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
    extrapolated_gap: float | None

    @property
    def better_point(self) -> str:
        gap = self.extrapolated_gap
        return "extrapolated" if gap is not None and gap < self.relative_gap else "iterate"


@dataclass
class InnerResult:
    """Outcome of one inner solve.

    ``stop_reason`` says why it stopped: ``residual`` (tolerance met), ``cap``
    (``inner_max_iters`` reached), ``stagnated`` (a trial step at or below
    ``1/L = 1/(8(1 + delta))`` failed to lower the energy, which only
    rounding can cause, or the residual is not a number; ``u`` is the last
    accepted iterate).  ``evaluations`` counts the candidate points
    evaluated, accepted or not; ``energy_history`` the energy at the start
    and after each accepted step, the last that of ``u``.  Derived:
    ``converged``, i.e. ``stop_reason == "residual"``.
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
    """``max |g|``, with |g| written over g: the residual it is taken of is not read again."""
    return float(np.maximum.reduce(np.abs(g, out=g), axis=None))


@np.errstate(over="ignore", invalid="ignore")  # inf energies, as in ``energy.primal_energy``
def minimize_smooth(u0, delta, f, mask, params: ModelParams, cfg: SolverConfig) -> InnerResult:
    """Minimize the viscous energy at fixed delta > 0 from the start u0.

    Stops when the sup-norm of the residual falls below
    ``inner_tol * (1 + sup_known |f|)``, after ``inner_max_iters``
    iterations, or when a trial step at or below ``1/L`` fails to lower the
    energy (``stop_reason`` says which); ``delta`` overrides ``params.density.delta``.

    Each iteration takes ``cand = prox_{gamma G}(u - gamma grad D(u))`` and
    halves gamma until the energy falls by at least
    ``_SUFFICIENT_DECREASE * |cand - u|^2/gamma``, the Armijo constant 1e-4.
    By the descent lemma the energy falls by ``|cand - u|^2/(2 gamma)``, more
    than that, for every gamma <= 1/L in exact arithmetic, ``L = 8(1 + delta)``,
    so a trial at or below 1/L always passes and one that fails, which only
    rounding can cause, ends the solve instead of halving further.  The test
    runs on the sum of the per-pixel energy differences, free of the
    cancellation between two large totals; a candidate that passes it is
    accepted only if its total is also strictly below the current one, so
    every accepted step strictly decreases the computed energy.  Every total
    and inner product is one ``energy._total``.

    The first iteration starts from gamma = 1.0, each later one from a
    Barzilai-Borwein step on the last accepted move ``s = cand - u`` and
    ``y = grad D(cand) - grad D(u)``, capped at 1e4: ``BB1 = s.s/s.y``
    after an odd iteration, ``BB2 = s.y/y.y <= BB1`` after an even one, and
    twice the accepted gamma when ``s.y <= 0``.

    The call builds one evaluation plan (``energy._Plan``), which binds f as
    stitched rows and holds the gradient field, the image for ``u - f``, the
    residual and the products summed into s.s, s.y and y.y, and the
    per-pixel buffers, among them the pixel energies of u; a second such
    slot takes the candidate's, and the two are swapped on acceptance.  The
    call allocates its own images once as stitched rows (M, H*W): one for
    the trial point ``u - gamma grad D(u)`` and then s; two slots for
    ``grad D``, the old one overwritten by y; and two iterate slots, u and
    the candidate, swapped on acceptance.  Every iteration writes into these
    buffers.  The prox takes and returns pixels by channels, the transposed
    rows (H*W, M), f among them as the plan's ``f_rows.T``.  u0 is copied
    into an iterate slot and never written, and the returned ``u`` is the
    (H, W, M) view of the accepted slot itself.
    """
    pd = params.with_delta(_scalar_check(delta, "delta", 0.0))
    u0, f, mask = _shape_check(u0, f, mask)
    tol = cfg.inner_tol * (1.0 + _sup_known(f, mask))
    min_step = 1.0 / (8.0 * (1.0 + pd.density.delta))
    # The iterate slots come last, so the slot returned as u tends to lie above
    # the other buffers in the heap.  Freed together at return, those then do
    # not join the free top of the heap, which malloc gives back to the system
    # once it is large (glibc: at twice its mmap threshold, 1.6 MB in the
    # benchmark process), and certify and the next level reuse their pages.
    plan = _Plan(f, mask, pd)
    trial, div_u, div_spare, spare, u = (np.empty(plan.dev_rows.shape) for _ in range(5))
    np.copyto(u, _plane_rows(u0, (2, 0, 1)))
    # The pixel energies of u and of the candidate, swapped on acceptance.
    e_u, e_cand = plan.energy, np.empty_like(plan.energy)

    total = _energy_total(plan.evaluate(u, e_u))
    res = _linf(plan.residual(div_u))
    history = [total]

    step = 1.0
    iters = evaluations = 0
    stop_reason = None
    while res > tol and iters < cfg.inner_max_iters:
        iters += 1
        step = min(step, _STEP_MAX)
        while True:
            np.multiply(step, div_u, out=trial)
            np.subtract(u, trial, out=trial)
            cand = _fidelity_prox(trial.T, plan.f_rows.T, plan.mask, pd, step, out=spare.T).T
            s = np.subtract(cand, u, out=trial)
            ss = _total(np.multiply(s, s, out=plan.dev_rows))
            plan.evaluate(cand, e_cand)
            evaluations += 1
            change = _total(np.subtract(e_cand, e_u, out=plan.temp))
            if change <= -_SUFFICIENT_DECREASE * ss / step:
                cand_total = _energy_total(e_cand)
                if cand_total < total:
                    break
            if not step > min_step:  # also ends on a non-finite step
                stop_reason = "stagnated"
                break
            step *= 0.5
        if stop_reason is not None:
            break

        res = _linf(plan.residual(div_spare))
        # Barzilai-Borwein trial step from the density curvature alone; the
        # fidelity is handled exactly by the prox.  s.y > 0 implies y.y > 0.
        y = div_u  # grad D(u), no longer needed
        np.subtract(div_spare, y, out=y)
        sy = _total(np.multiply(s, y, out=plan.dev_rows))
        if sy > 0.0:
            if iters % 2:
                step = ss / sy
            else:
                step = sy / _total(np.multiply(y, y, out=plan.dev_rows))
        else:
            step = 2.0 * step
        # A prox that returns an array of its own (a test double) leaves the
        # old u as the next candidate's slot all the same.
        u, spare, div_u, div_spare = cand, u, div_spare, y
        e_u, e_cand, total = e_cand, e_u, cand_total
        history.append(total)

    if stop_reason is None:  # below tol, at the cap, or a residual that is not a number
        capped = iters == cfg.inner_max_iters
        stop_reason = "residual" if res <= tol else "cap" if capped else "stagnated"
    return InnerResult(
        u=_unstitched(u, *f.shape[:2]),
        iterations=iters,
        residual_inf=res,
        stop_reason=stop_reason,
        evaluations=evaluations,
        energy_history=history,
    )


def _richardson(v, u1, c, bound):
    """``v + c (v - u1)`` projected pixelwise onto ``|.| <= bound``, in an array of its own."""
    point = np.subtract(v, u1)
    point *= c
    point += v
    return _clamp_in_place(point, bound)


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
    is the delta = 0 problem's at every level (``dual.certify``).

    From the second level on, the iterates u1 at delta1 and v at delta2 of
    the last two levels give the Richardson point ``v + c (v - u1)``,
    ``c = delta2/(delta1 - delta2)``, whose error is O(delta1 delta2), not
    O(delta2), as u(delta) = u* + delta u_1 + O(delta^2) (Richardson and
    Gaunt, 1927).  It is projected pixelwise onto the ball ``|v| <= L``
    (``grid.clamp_to_ball``), which holds every known f, so the projection
    raises neither energy term and keeps the maximum principle; it takes the
    iterate's delta-free certificate, rigorous at any point.

    Each level runs its solve budgets in turn, each solve going on from the
    last one's iterate: ``(inner_max_iters,)`` on the first level and on
    every level when ``inner_max_iters <= 2``, else, from the second level
    on, ``(2, inner_max_iters - 2)``.  From the second level on, each
    solve's point is formed in an array of its own and certified.  The level
    ends when a solve stops short of its cap or was its last; after the
    first of two solves, a point gap of at most ``gap_tol / 4``, a margin
    that keeps the certificates of such levels well inside the tolerance,
    ends it as ``certified``.  The level's iterate is then certified once.
    The level's certificate is that of the point its record's
    ``better_point`` names, and the call returns that point.  The next level
    starts from the level's own iterate, and the records describe the
    iterates (``ConvergenceRecord``).

    f is taken channel-planar for the solve; the returned u is C-contiguous.
    An explicit u0 is first projected, in a copy, onto the ball ``|v| <= L``:
    by the maximum principle that moves it toward every minimizer and raises
    neither energy term, and it keeps a huge start from overflowing the energy.
    """
    u0, f, mask = _shape_check(u0, f, mask)
    f = _planar(f)
    bound = _sup_known(f, mask)
    u = default_initial(f, mask) if u0 is None else clamp_to_ball(u0, bound)
    records = []
    delta = cfg.delta0
    while True:
        t0 = time.perf_counter()
        tol = max(cfg.inner_tol, cfg.gap_tol * delta)
        u1, budgets, extra = u, (cfg.inner_max_iters,), None  # extra: the point and its certificate
        if records:
            c = delta / (records[-1].delta - delta)
            if cfg.inner_max_iters > 2:
                budgets = (2, cfg.inner_max_iters - 2)
        iterations = evaluations = 0
        for k, cap in enumerate(budgets, 1):
            solve_cfg = replace(cfg, inner_tol=tol, inner_max_iters=cap)
            inner = minimize_smooth(u, delta, f, mask, params, solve_cfg)
            u, stop_reason = inner.u, inner.stop_reason
            iterations += inner.iterations
            evaluations += inner.evaluations
            if records:
                point = _richardson(u, u1, c, bound)
                extra = point, certify(point, f, mask, params, bound)
            if stop_reason != "cap":
                break
            if k < len(budgets) and extra[1].relative_gap <= cfg.gap_tol / 4.0:
                stop_reason = "certified"
                break
        cert = certify(u, f, mask, params, bound)
        records.append(
            ConvergenceRecord(
                delta=delta,
                inner_iterations=iterations,
                I_delta_value=inner.energy_history[-1],
                I_value=cert.primal_value,
                dual_value=cert.dual_value,
                relative_gap=cert.relative_gap,
                residual_inf_norm=inner.residual_inf,
                max_abs_u=float(np.max(channel_norms(u))),
                wall_seconds=time.perf_counter() - t0,
                stop_reason=stop_reason,
                evaluations=evaluations,
                extrapolated_gap=None if extra is None else extra[1].relative_gap,
            )
        )
        returned, best = extra if records[-1].better_point == "extrapolated" else (u, cert)
        if best.relative_gap <= cfg.gap_tol:
            break
        delta *= cfg.delta_factor
        if delta < cfg.delta_min * (1.0 - 1e-12):
            break
    return np.ascontiguousarray(returned), best, records
