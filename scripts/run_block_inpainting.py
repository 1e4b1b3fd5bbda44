#!/usr/bin/env python3
"""Block-inpainting experiment with a per-level convergence table.

Builds an n x n checkerboard with a damaged central block, runs the
vanishing-viscosity continuation, and prints viscosity level, inner
iterations, candidate points evaluated (accepted or not), why the inner solve
stopped (residual, cap, stagnated or certified), primal/dual values, the
relative duality gap of the iterate and of the Richardson point (blank on
the first level) and the viscous gradient energy delta * sum |grad u|^2 for
each outer step, then the point that was returned (iterate or extrapolated)
and its certificate.

Exits 1 when the run fails a check: a dual value above the primal value, a
gap that is not finite, the maximum principle, or, without
``--full-schedule``, a gap above ``--gap-tol``; 0 otherwise.
"""

import argparse
import math
import sys
import time

import numpy as np

from viscotv import (
    DensityParams,
    ModelParams,
    SolverConfig,
    check_max_principle,
    continuation,
)


def main():
    defaults = SolverConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--mu", type=float, default=2.0)
    parser.add_argument("--zeta", type=float, default=2.0)
    parser.add_argument("--lam", type=float, default=10.0)
    parser.add_argument("--gap-tol", type=float, default=defaults.gap_tol)
    parser.add_argument("--delta-min", type=float, default=defaults.delta_min)
    parser.add_argument("--full-schedule", action="store_true",
                        help="disable the gap stop and walk delta to the floor")
    args = parser.parse_args()

    n = args.size
    yy, xx = np.indices((n, n))
    f = ((yy + xx) % 2).astype(float)[:, :, None]
    mask = np.zeros((n, n), dtype=bool)
    lo, hi = 3 * n // 8, 5 * n // 8
    mask[lo:hi, lo:hi] = True

    params = ModelParams(lam=args.lam, zeta=args.zeta, density=DensityParams(args.mu))
    cfg = SolverConfig(
        gap_tol=1e-300 if args.full_schedule else args.gap_tol,
        delta_min=args.delta_min,
    )

    t0 = time.perf_counter()
    u, cert, records = continuation(f, mask, params, cfg)
    wall = time.perf_counter() - t0

    print(f"{'delta':>9}  {'inner':>5}  {'evals':>5}  {'stop':>9}  {'I_delta':>12}  "
          f"{'I':>12}  {'R_hat':>12}  {'gap_rel':>9}  {'extra_gap':>9}  {'visc':>9}")
    for r in records:
        visc = 2.0 * (r.I_delta_value - r.I_value)
        extra = "" if r.extrapolated_gap is None else f"{r.extrapolated_gap:9.2e}"
        print(f"{r.delta:9.1e}  {r.inner_iterations:5d}  {r.evaluations:5d}  "
              f"{r.stop_reason:>9}  {r.I_delta_value:12.6f}  {r.I_value:12.6f}  {r.dual_value:12.6f}  "
              f"{r.relative_gap:9.2e}  {extra:>9}  {visc:9.2e}")

    mp = check_max_principle(u, f, mask)
    print(f"\nreturned point: {records[-1].better_point}")
    print(f"certificate: I = {cert.primal_value:.9g}, R_hat = {cert.dual_value:.9g}, "
          f"relative gap = {cert.relative_gap:.3e}, scale = {cert.dual_scale:.6f}")
    print(f"dual feasibility margin = {cert.feasibility_margin:.6f}, "
          f"max |div tau| on damage = {cert.divergence_residual_on_D:.3e}")
    print(f"maximum principle: {'pass' if mp.passed else 'FAIL'} "
          f"(margin {mp.margin:.2e}, bound {mp.bound:g})")
    print(f"wall time: {wall:.2f}s")

    checks = {
        "dual value above primal value": cert.dual_value > cert.primal_value,
        "gap not finite": not math.isfinite(cert.relative_gap),
        "maximum principle": not mp.passed,
        "gap above --gap-tol": not args.full_schedule and cert.relative_gap > args.gap_tol,
    }
    failures = [text for text, failed in checks.items() if failed]
    for text in failures:
        print(f"FAIL: {text}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
