import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bridge_instance,
    checkerboard_instance,
    hole_instance_color,
    layouts,
    peak_allocation,
    random_instance,
    same_bits,
)
import viscotv
from viscotv import dual, energy, solver
from viscotv.density import DensityParams
from viscotv.dual import sup_known_norm
from viscotv.energy import ModelParams, euler_residual, primal_energy
from viscotv.grid import _plane_rows, clamp_to_ball, gradient
from viscotv.solver import (
    SolverConfig,
    check_max_principle,
    continuation,
    default_initial,
    minimize_smooth,
)


def params_for(mu=2.0, lam=10.0, zeta=2.0):
    return ModelParams(lam=lam, zeta=zeta, density=DensityParams(mu))


def blocky_instance(n, channels, hole, seed=0):
    """8 x 8 noisy blocks in [0, 1], with the central hole [3n/8, 5n/8)^2 or none."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) * 8 // n
    f = rng.uniform(size=(8, 8, channels))[block[:, None], block[None, :]]
    f = np.clip(f + rng.normal(0.0, 0.05, f.shape), 0.0, 1.0)
    mask = np.zeros((n, n), dtype=bool)
    if hole:
        mask[3 * n // 8 : 5 * n // 8, 3 * n // 8 : 5 * n // 8] = True
    return f, mask


# Continuation instances at the default settings.  The second level of the
# color denoising certifies at its check after 2 iterations; those of the
# checkerboard and the gray inpainting do not clear gap_tol/4 there and run
# on to their residual.  All three return the Richardson point.
INSTANCES = {
    "checkerboard": checkerboard_instance,
    "denoise_color": lambda: blocky_instance(16, 3, hole=False),
    "inpaint_gray": lambda: blocky_instance(16, 1, hole=True, seed=7),
}


def replace_cap(cfg, inner_max_iters):
    """cfg with another ``inner_max_iters``."""
    return dataclasses.replace(cfg, inner_max_iters=inner_max_iters)


def record_calls(monkeypatch):
    """A list that continuation's calls append "solve" and "certify" to, in order."""
    calls = []
    certify, minimize = solver.certify, solver.minimize_smooth

    def counting_certify(*args, **kwargs):
        calls.append("certify")
        return certify(*args, **kwargs)

    def counting_minimize_smooth(*args, **kwargs):
        calls.append("solve")
        return minimize(*args, **kwargs)

    monkeypatch.setattr(solver, "certify", counting_certify)
    monkeypatch.setattr(solver, "minimize_smooth", counting_minimize_smooth)
    return calls


def richardson_point(level1, level2, bound):
    """The clamped Richardson point of the iterates ``(delta, u)`` of two levels."""
    (delta1, u1), (delta2, v) = level1, level2
    return clamp_to_ball(v + delta2 / (delta1 - delta2) * (v - u1), bound)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(delta0=1e-9, delta_min=1e-8)
        with pytest.raises(ValueError):
            SolverConfig(delta_factor=1.0)
        with pytest.raises(ValueError):
            SolverConfig(inner_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(delta0=float("inf"))
        # Each setting is a finite real and not a bool, though True compares as 1.
        for name, bad in (
            ("delta_min", dict(delta0=2.0, delta_min=True)),
            ("gap_tol", dict(gap_tol=True)),
            ("inner_tol", dict(inner_tol=math.inf)),
            ("gap_tol", dict(gap_tol=math.inf)),
        ):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**bad)
        for cap in (2.5, True, 0):
            with pytest.raises(ValueError, match="inner_max_iters"):
                SolverConfig(inner_max_iters=cap)


class TestMinimizeSmooth:
    def test_requires_positive_delta(self):
        f, mask = bridge_instance()
        for delta in (0.0, True):
            with pytest.raises(ValueError, match="delta"):
                minimize_smooth(f, delta, f, mask, params_for(), SolverConfig())

    def test_non_finite_residual_stops_as_stagnated(self):
        # The gradient of u0 overflows, so its flux (0 + delta)*inf and the
        # first residual are infinite: no trial step lowers the infinite
        # energy, and the solve stops after the halvings down to 1/L, far
        # short of its cap, without a warning.
        u0 = np.array([[1e308, -1e308], [0.0, 0.0]])[:, :, None]
        f, mask = np.zeros((2, 2, 1)), np.zeros((2, 2), dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize_smooth(u0, 0.1, f, mask, params_for(), SolverConfig())
        assert (res.iterations, res.evaluations) == (1, 5)
        assert res.residual_inf == math.inf
        assert res.stop_reason == "stagnated"
        assert res.energy_history == [math.inf]

    def test_constant_data_converges_to_constant(self):
        f = np.full((6, 6, 1), 0.3)
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True
        rng = np.random.default_rng(0)
        u0 = rng.uniform(size=f.shape)
        res = minimize_smooth(u0, 1e-2, f, mask, params_for(), SolverConfig())
        assert np.max(np.abs(res.u - 0.3)) < 1e-6

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("zeta", [1.5, 2.0, 3.0])
    def test_descent_is_strict_across_accepted_steps(self, zeta, channels):
        rng = np.random.default_rng(1)
        f, mask = random_instance(rng, channels=channels)
        u0 = rng.uniform(size=f.shape)
        params = params_for(zeta=zeta)
        res = minimize_smooth(u0, 0.05, f, mask, params, SolverConfig())
        hist = np.array(res.energy_history)
        assert (np.diff(hist) < 0.0).all()
        assert hist[-1] == primal_energy(res.u, f, mask, params.with_delta(0.05))

    def test_two_random_starts_agree(self):
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        params = params_for()
        cfg = SolverConfig(inner_tol=1e-10, inner_max_iters=30000)
        rng = np.random.default_rng(2)
        r1 = minimize_smooth(rng.uniform(-1, 1, size=f.shape), 1e-2, f, mask, params, cfg)
        r2 = minimize_smooth(rng.uniform(-1, 1, size=f.shape), 1e-2, f, mask, params, cfg)
        assert np.max(np.abs(r1.u - r2.u)) <= 1e-6

    def test_residual_reported(self):
        f, mask = bridge_instance()
        res = minimize_smooth(
            default_initial(f, mask), 0.1, f, mask, params_for(lam=1e4), SolverConfig()
        )
        assert res.residual_inf == pytest.approx(res.residual_inf)
        assert res.iterations >= 1

    def test_cap_is_reported(self):
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        cfg = SolverConfig(inner_max_iters=3)
        res = minimize_smooth(default_initial(f, mask), 1e-2, f, mask, params_for(), cfg)
        assert res.iterations == 3
        assert res.stop_reason == "cap"
        assert not res.converged

    def test_tolerance_stop_is_reported(self):
        f = np.full((6, 6, 1), 0.3)
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True
        u0 = np.random.default_rng(0).uniform(size=f.shape)
        res = minimize_smooth(u0, 1e-2, f, mask, params_for(), SolverConfig())
        assert res.converged
        assert res.stop_reason == "residual"

    def test_no_descent_stops_as_stagnated(self, monkeypatch):
        # A prox that only ever moves uphill: every trial step fails, and the
        # solve ends at its start instead of raising.  The line search stops
        # at the first failed trial at or below 1/L = 1/(8(1 + delta)) ~
        # 0.1238: trials 1, 1/2, 1/4, 1/8 and 1/16.
        monkeypatch.setattr(solver, "_fidelity_prox", lambda w, *args, **kwargs: w + 1.0)
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        u0 = default_initial(f, mask)
        res = minimize_smooth(u0, 1e-2, f, mask, params_for(), SolverConfig())
        assert res.stop_reason == "stagnated"
        assert not res.converged
        assert np.array_equal(res.u, u0)
        assert res.energy_history == [primal_energy(u0, f, mask, params_for().with_delta(1e-2))]
        assert res.evaluations == 5

    @pytest.mark.parametrize("zeta", [1.5, 2.0])
    def test_exact_total_only_after_armijo_passes(self, monkeypatch, zeta):
        # The sufficient-decrease test compares per-pixel energy differences;
        # the energy total is summed once for u0 and once per candidate that
        # passes it, and a passing candidate lies strictly below u0, so it is
        # accepted.  The weak fidelity (lam = 0.1) leaves the step to the
        # density's curvature, which at delta = 1 (L = 16) rejects the trial
        # steps 1, 1/2 and 1/4 before it accepts 1/8.  Every sum goes through
        # ``energy._total``: s.s and the energy change per candidate, then
        # s.y after the one (odd) iteration, and the two energy totals.
        calls = {"totals": 0, "points": 0}
        total, evaluate = energy._total, energy._Plan.evaluate

        def counting_total(values):
            calls["totals"] += 1
            return total(values)

        def counting_evaluate(self, *args):
            calls["points"] += 1
            return evaluate(self, *args)

        monkeypatch.setattr(energy, "_total", counting_total)
        monkeypatch.setattr(solver, "_total", counting_total)
        monkeypatch.setattr(energy._Plan, "evaluate", counting_evaluate)
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        cfg = SolverConfig(inner_max_iters=1)
        params = params_for(lam=0.1, zeta=zeta)
        res = minimize_smooth(default_initial(f, mask), 1.0, f, mask, params, cfg)
        assert len(res.energy_history) == 2
        candidates = calls["points"] - 1
        assert candidates > 2  # at least two backtracked candidates
        assert calls["totals"] == 2 * candidates + 1 + 2

    @pytest.mark.parametrize("zeta", [1.5, 2.0])
    def test_step_passes_on_armijo_fraction(self, zeta):
        # The trial step 1 fails and 1/2 passes, with a decrease below the
        # descent lemma's |s|^2/(2 gamma) but above 1e-4 |s|^2/gamma.
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        u0 = default_initial(f, mask)
        cfg = SolverConfig(inner_max_iters=1)
        res = minimize_smooth(u0, 1e-2, f, mask, params_for(lam=0.1, zeta=zeta), cfg)
        assert res.iterations == 1 and res.evaluations == 2
        step, ss = 0.5, float(np.sum((res.u - u0) ** 2))
        decrease = res.energy_history[0] - res.energy_history[1]
        assert solver._SUFFICIENT_DECREASE * ss / step <= decrease < ss / (2.0 * step)

    def test_evaluations_count_every_candidate(self, monkeypatch):
        # Every point but the start is a candidate, accepted or not.
        calls = {"points": 0}
        evaluate = energy._Plan.evaluate

        def counting_evaluate(self, *args):
            calls["points"] += 1
            return evaluate(self, *args)

        monkeypatch.setattr(energy._Plan, "evaluate", counting_evaluate)
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        cfg = SolverConfig(inner_max_iters=8)
        res = minimize_smooth(default_initial(f, mask), 1e-2, f, mask, params_for(lam=0.1), cfg)
        assert res.evaluations == calls["points"] - 1
        assert res.evaluations > res.iterations

    def test_trial_steps_alternate_bb1_and_bb2(self, monkeypatch):
        # Each iteration starts from a Barzilai-Borwein step on the accepted
        # iterates, y the change in the density gradient: BB1 = s.s/s.y after
        # an odd iteration, BB2 = s.y/y.y after an even one.
        trials = []
        prox = solver._fidelity_prox

        def spy(w, *args, **kwargs):
            cand = prox(w, *args, **kwargs)
            trials.append((args[-1], cand.copy(order="K")))
            return cand

        monkeypatch.setattr(solver, "_fidelity_prox", spy)
        f, mask = random_instance(np.random.default_rng(11), shape=(8, 8))
        params, delta = params_for(zeta=2.0), 1e-2
        u0 = default_initial(f, mask)
        res = minimize_smooth(u0, delta, f, mask, params, SolverConfig(inner_tol=1e-6))
        assert res.stop_reason == "residual" and res.iterations >= 6

        # The accepted candidates are those whose energy is the next history
        # entry.  The prox takes pixels by channels, so a candidate's
        # transpose is its stitched rows, as the plan takes them.
        plan = energy._Plan(f, mask, params.with_delta(delta))
        iterates, firsts = [_plane_rows(u0, (2, 0, 1))], [0]
        for i, (_, cand) in enumerate(trials):
            total = energy._energy_total(plan.evaluate(cand.T, plan.energy))
            if total == res.energy_history[len(iterates)]:
                iterates.append(cand.T)
                firsts.append(i + 1)
                if len(iterates) == len(res.energy_history):
                    break
        assert len(iterates) == res.iterations + 1
        assert firsts[-1] == len(trials)  # the last accepted candidate is the last trial

        density_residuals = []
        for u in iterates:
            plan.evaluate(u, plan.energy)
            density_residuals.append(np.empty(u.shape))
            plan.residual(density_residuals[-1])
        shorter = 0
        for j in range(1, res.iterations):  # iteration j is done, j + 1 starts
            s = iterates[j] - iterates[j - 1]
            y = density_residuals[j] - density_residuals[j - 1]
            ss, sy, yy = (float(np.sum(a * b)) for a, b in ((s, s), (s, y), (y, y)))
            assert sy > 0.0  # D is convex
            bb1, bb2 = ss / sy, sy / yy
            assert bb2 <= bb1 * (1.0 + 1e-12)
            shorter += j % 2 == 0 and bb2 < 0.99 * bb1
            expected = bb1 if j % 2 else bb2
            assert trials[firsts[j]][0] == pytest.approx(min(expected, solver._STEP_MAX), rel=1e-12)
        assert shorter >= 1  # BB2 and BB1 are told apart

    def test_iterates_do_not_depend_on_blas_threads(self):
        # Inner products taken by BLAS (np.vdot) sum in an order that depends
        # on the thread count; the solver's must not.
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            from viscotv.density import DensityParams
            from viscotv.energy import ModelParams
            from viscotv.solver import SolverConfig, default_initial, minimize_smooth

            f = np.random.default_rng(7).uniform(size=(128, 128, 1))
            mask = np.zeros((128, 128), dtype=bool)
            mask[48:80, 48:80] = True
            params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(2.0))
            res = minimize_smooth(
                default_initial(f, mask), 1e-2, f, mask, params,
                SolverConfig(inner_max_iters=20),
            )
            print(hashlib.sha256(res.u.tobytes()).hexdigest())
            """
        )
        src = os.path.dirname(os.path.dirname(viscotv.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestWorkBuffers:
    """Each minimize_smooth call allocates its work buffers once and reuses them."""

    @staticmethod
    def spy_on_prox(monkeypatch, record):
        prox = solver._fidelity_prox

        def spy(w, *args, **kwargs):
            cand = prox(w, *args, **kwargs)
            record(kwargs.get("out"), cand)
            return cand

        monkeypatch.setattr(solver, "_fidelity_prox", spy)

    def test_inputs_are_read_only_and_never_work_slots(self, monkeypatch):
        u0, f, mask = hole_instance_color(n=24)  # planar, as continuation passes them
        before = u0.copy(order="K"), f.copy(order="K")
        slots = []
        self.spy_on_prox(monkeypatch, lambda out, cand: slots.extend([out, cand]))
        cfg = SolverConfig(inner_max_iters=5)
        for start in (u0, f):  # started at f, u0 and f are one array
            res = minimize_smooth(start, 1e-2, f, mask, params_for(), cfg)
            assert res.iterations >= 1
            for array in (start, f):
                assert not np.shares_memory(res.u, array)
                assert not any(np.shares_memory(slot, array) for slot in slots if slot is not None)
        assert same_bits(u0, before[0]) and same_bits(f, before[1])
        # A start at the minimizer is returned after no iteration, still a copy.
        f = np.full((6, 6, 1), 0.3)
        mask = np.zeros((6, 6), dtype=bool)
        res = minimize_smooth(f, 1e-2, f, mask, params_for(), SolverConfig())
        assert res.iterations == 0
        assert not np.shares_memory(res.u, f) and (f == 0.3).all()

    def test_candidates_live_in_two_buffers(self, monkeypatch):
        # Candidates allocated per trial point landed in 8 distinct buffers here.
        addresses = []
        self.spy_on_prox(monkeypatch, lambda out, cand: addresses.append(cand.ctypes.data))
        u0, f, mask = hole_instance_color(n=96)
        cfg = SolverConfig(inner_tol=1e-12, inner_max_iters=8)
        res = minimize_smooth(u0, 1e-2, f, mask, params_for(), cfg)
        assert res.iterations >= 6
        assert len(set(addresses)) <= 2
        assert res.u.ctypes.data in addresses  # the accepted slot itself, not a copy

    def test_calls_return_unshared_iterates(self):
        u0, f, mask = hole_instance_color(n=16)
        cfg = SolverConfig(inner_max_iters=4)
        first, second = (minimize_smooth(u0, 1e-2, f, mask, params_for(), cfg) for _ in range(2))
        assert not np.shares_memory(first.u, second.u)
        assert same_bits(first.u, second.u)

    def test_peak_in_gradient_fields(self):
        # The buffers are 4 gradient fields (6 images and one field); with
        # the per-pixel temporaries the call peaks at ~5.5.  Temporaries
        # allocated per trial point peaked at 6.7 on this instance.
        u0, f, mask = hole_instance_color(n=96)
        cfg = SolverConfig(inner_tol=1e-12, inner_max_iters=8)
        minimize_smooth(u0, 1e-2, f, mask, params_for(), cfg)  # warm-up
        peak = peak_allocation(lambda: minimize_smooth(u0, 1e-2, f, mask, params_for(), cfg))
        assert peak < 5.85 * gradient(u0).nbytes


class TestContinuation:
    def test_constant_denoise_shortcut(self):
        f = np.full((8, 8, 2), 0.5)
        mask = np.zeros((8, 8), dtype=bool)
        u, cert, recs = continuation(f, mask, params_for(), SolverConfig())
        assert np.array_equal(u, f)
        assert cert.relative_gap == 0.0
        assert len(recs) == 1
        assert recs[0].inner_iterations == 0

    def test_u0_of_another_shape_rejected_before_any_solve(self, monkeypatch):
        calls = record_calls(monkeypatch)
        f = np.full((6, 6, 1), 0.5)
        mask = np.zeros((6, 6), dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            continuation(f, mask, params_for(), SolverConfig(), u0=np.zeros((6, 5, 1)))
        assert calls == []

    def test_constant_known_inpainting_shortcut(self):
        # No special case: the clipped mean fill starts the general loop at
        # the minimizer, even where the mean of 0.3 is off by an ulp.
        for c, channels in [(0.25, 1), (0.3, 1), (0.3, 3)]:
            f = np.full((6, 6, channels), c)
            mask = np.zeros((6, 6), dtype=bool)
            mask[2:4, 2:4] = True
            f[mask] = 0.9  # ignored under the damage
            u, cert, recs = continuation(f, mask, params_for(), SolverConfig())
            assert (u == c).all()
            assert cert.relative_gap == 0.0
            assert [r.inner_iterations for r in recs] == [0]

    def test_bridge_ramp(self):
        f, mask = bridge_instance()
        params = params_for(lam=1e4, zeta=2.0)
        u, cert, recs = continuation(f, mask, params, SolverConfig())
        expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.max(np.abs(u.ravel() - expected)) <= 1e-2
        assert cert.relative_gap <= 1e-4

    def test_records_monotone_and_consistent(self):
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        cfg = SolverConfig(gap_tol=1e-30, delta_min=1e-6)
        u, cert, recs = continuation(f, mask, params_for(), cfg)
        i_values = [r.I_value for r in recs]
        assert all(b <= a + 1e-12 for a, b in zip(i_values, i_values[1:]))
        assert all(r.relative_gap >= 0.0 for r in recs)
        assert all(r.I_delta_value >= r.I_value - 1e-12 for r in recs)
        deltas = [r.delta for r in recs]
        assert deltas == sorted(deltas, reverse=True)
        # the certificate tightens along the continuation and the final
        # iterate nearly solves the viscosity-free Euler equation
        assert recs[-1].relative_gap < recs[0].relative_gap
        residual0 = euler_residual(u, f, mask, params_for().without_viscosity())
        assert float(np.max(np.abs(residual0))) <= 1e-4

    def test_viscosity_energy_decays_by_schedule_in_tail(self):
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        cfg = SolverConfig(gap_tol=1e-30, delta_min=1e-8)
        _, _, recs = continuation(f, mask, params_for(), cfg)
        visc = [2.0 * (r.I_delta_value - r.I_value) for r in recs]
        # delta shrinks 10x per step while the gradient energy stabilizes,
        # so the tail ratio approaches 10 from below.
        tail = [visc[i] / visc[i + 1] for i in range(len(visc) - 3, len(visc) - 1)]
        assert all(r >= 9.5 for r in tail)

    def test_small_zeta_certifies_in_few_iterations(self):
        # zeta = 1.5 has unbounded fidelity curvature at u = f; plain gradient
        # steps crawl there (over 5000 inner iterations on this instance),
        # the exact fidelity prox does not.
        _, mask = checkerboard_instance(n=24, block=(9, 15))
        f = np.random.default_rng(0).uniform(size=(24, 24, 1))
        u, cert, recs = continuation(f, mask, params_for(zeta=1.5), SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert sum(r.inner_iterations for r in recs) <= 500

    def test_levels_stop_at_gap_scaled_tolerance(self):
        # A level whose viscous bias keeps its gap above gap_tol is only a
        # warm start, so it is solved to gap_tol * delta, not to inner_tol.
        f, mask = checkerboard_instance()
        cfg = SolverConfig()
        _, cert, recs = continuation(f, mask, params_for(), cfg)
        scale = 1.0 + sup_known_norm(f, mask)
        assert cert.relative_gap <= cfg.gap_tol
        assert recs[0].stop_reason == "residual"
        for r in recs:
            if r.stop_reason == "residual":
                level_tol = max(cfg.inner_tol, cfg.gap_tol * r.delta)
                assert r.residual_inf_norm <= level_tol * scale
        assert recs[0].residual_inf_norm > cfg.inner_tol * scale

    def test_tiny_gap_tol_keeps_exact_levels(self):
        # With gap_tol * delta below inner_tol every level is solved exactly
        # as minimize_smooth solves it with the caller's config: the first in
        # one solve, each later one as a solve capped at 2 and the rest of
        # the cap from its iterate.  No level certifies.  The call returns
        # the last iterate or its clamped Richardson point, whichever has the
        # smaller gap.
        f, mask = checkerboard_instance()
        cfg = SolverConfig(gap_tol=1e-30, delta_min=1e-3)
        u, cert, recs = continuation(f, mask, params_for(), cfg)
        assert len(recs) == 3
        assert all(r.stop_reason != "certified" for r in recs)
        v, delta, iterates = default_initial(f, mask), cfg.delta0, []
        for _ in recs:
            if iterates:
                first = minimize_smooth(v, delta, f, mask, params_for(), replace_cap(cfg, 2))
                assert first.stop_reason == "cap"
                v, rest = first.u, replace_cap(cfg, cfg.inner_max_iters - 2)
                v = minimize_smooth(v, delta, f, mask, params_for(), rest).u
            else:
                v = minimize_smooth(v, delta, f, mask, params_for(), cfg).u
            iterates.append((delta, v))
            delta *= cfg.delta_factor
        point = richardson_point(*iterates[-2:], sup_known_norm(f, mask))
        returned = point if recs[-1].better_point == "extrapolated" else v
        assert same_bits(u, returned)
        assert cert.relative_gap == min(recs[-1].relative_gap, recs[-1].extrapolated_gap)

    def test_records_carry_level_evaluations(self):
        # The first level is a plain minimize_smooth at its gap-scaled
        # tolerance.  Each later one is a solve capped at 2 and, unless its
        # check certified, a solve capped at inner_max_iters - 2 from that
        # iterate; the record sums the two solves' counts and takes
        # the last one's stop, residual and energy.  Every record, a
        # certified level's too, carries the delta-free certificate of that
        # iterate.  The call returns the last iterate or its clamped
        # Richardson point, whichever has the smaller gap.  From the second
        # level on, a record's extrapolated_gap is the certificate of the
        # point of its iterate and the one before.
        cfg, params = SolverConfig(), params_for()
        for case, certifies in (("checkerboard", False), ("denoise_color", True)):
            f, mask = INSTANCES[case]()
            bound = sup_known_norm(f, mask)
            u, cert, recs = continuation(f, mask, params, cfg)
            assert ("certified" in [r.stop_reason for r in recs]) == certifies, case
            v, delta, iterates, before = default_initial(f, mask), cfg.delta0, [], None
            for r in recs:
                level_cfg = SolverConfig(inner_tol=max(cfg.inner_tol, cfg.gap_tol * delta))
                later = before is not None
                cap = 2 if later else cfg.inner_max_iters
                inner = minimize_smooth(v, delta, f, mask, params, replace_cap(level_cfg, cap))
                iterations, evaluations = inner.iterations, inner.evaluations
                if r.stop_reason == "certified":
                    assert inner.stop_reason == "cap" and r.extrapolated_gap <= cfg.gap_tol / 4
                elif later:
                    rest = replace_cap(level_cfg, cfg.inner_max_iters - 2)
                    inner = minimize_smooth(inner.u, delta, f, mask, params, rest)
                    iterations += inner.iterations
                    evaluations += inner.evaluations
                stop = "certified" if r.stop_reason == "certified" else inner.stop_reason
                assert (r.evaluations, r.stop_reason) == (evaluations, stop)
                assert r.inner_iterations == iterations
                assert r.I_delta_value == inner.energy_history[-1]
                assert r.residual_inf_norm == inner.residual_inf
                assert r.evaluations >= r.inner_iterations
                v = inner.u
                cert_v = dual.certify(v, f, mask, params, bound)
                level = (r.I_value, r.dual_value, r.relative_gap)
                assert level == (cert_v.primal_value, cert_v.dual_value, cert_v.relative_gap)
                iterates.append((delta, v))
                if before is None:
                    assert r.extrapolated_gap is None
                else:
                    point = richardson_point(*iterates[-2:], bound)
                    cert_point = dual.certify(point, f, mask, params, bound)
                    assert r.extrapolated_gap == cert_point.relative_gap
                delta *= cfg.delta_factor
                before = r
            point = richardson_point(*iterates[-2:], bound)
            returned = point if recs[-1].better_point == "extrapolated" else v
            assert same_bits(u, returned), case
            assert cert.relative_gap == min(recs[-1].relative_gap, recs[-1].extrapolated_gap)

    def test_huge_finite_start_does_not_raise(self):
        # An explicit start is projected onto the ball |v| <= L before the
        # first level, in a copy.  Unprojected, the first start's energy sums
        # past the float range (each pixel 1.4e306), and the second's pixel
        # norm overflows, so its energy is inf - inf = nan and no step passes.
        # Projected, that pixel lands on f's value as a finite 1.7e153 does,
        # and both starts are the minimizer itself.
        f = np.zeros((8, 16, 1))
        mask = np.zeros((8, 16), dtype=bool)
        params = params_for(lam=1.0)
        u, cert, recs = continuation(f, mask, params, SolverConfig(), u0=np.full(f.shape, 1.7e153))
        assert not np.isnan(cert.relative_gap)
        assert recs[0].I_delta_value < math.inf

        f = np.full((8, 8, 1), 0.5)
        mask = np.zeros((8, 8), dtype=bool)
        mask[3:5, 3:5] = True
        u0 = f.copy()
        u0[0, 0, 0] = 1.7e200
        u, cert, recs = continuation(f, mask, params, SolverConfig(), u0=u0)
        assert cert.relative_gap <= SolverConfig().gap_tol
        assert check_max_principle(u, f, mask).passed
        assert u0[0, 0, 0] == 1.7e200 and (u0.ravel()[1:] == 0.5).all()
        finite = u0.copy()
        finite[0, 0, 0] = 1.7e153
        _, _, finite_recs = continuation(f, mask, params, SolverConfig(), u0=finite)
        no_clock = [dataclasses.replace(r, wall_seconds=0.0) for r in recs]
        assert no_clock == [dataclasses.replace(r, wall_seconds=0.0) for r in finite_recs]
        assert [r.inner_iterations for r in recs] == [0]

    @pytest.mark.parametrize("seed", [2, 5])
    def test_mu_next_to_one_certifies(self, seed):
        # At zeta = mu = 1 + 1e-7, phi's expm1 form, kept for mu >= 1.5, loses
        # about cbar * t * eps to cancellation: the primal energy read low and
        # certify found weak duality violated on these seeds.
        f = np.random.default_rng(seed).uniform(size=(6, 6, 2))
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mu = 1.0 + 1e-7
        params = ModelParams(lam=1e300, zeta=mu, density=DensityParams(mu))
        _, cert, _ = continuation(f, mask, params, SolverConfig())
        assert 0.0 <= cert.relative_gap <= SolverConfig().gap_tol
        assert cert.dual_value <= cert.primal_value

    def test_scaled_board_certifies_at_large_mu(self):
        # [0, 255] data at mu = 15: phi' of the board's large gradients rounds
        # just past cbar, which certify scales back into the ball.
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(15.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the margin warning
            _, cert, _ = continuation(255.0 * f, mask, params, SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert cert.dual_value <= cert.primal_value

    def test_certifies_within_iteration_budget(self):
        # The 16x16 zeta = 2 instance of acceptance criterion 7.  Solving every
        # level to inner_tol needs 117 inner iterations here, 47 of them at
        # delta = 0.1, whose gap (~9e-3) could never certify 1e-4.
        f, mask = checkerboard_instance()
        _, cert, recs = continuation(f, mask, params_for(), SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert sum(r.inner_iterations for r in recs) <= 100

    def test_gap_stop_comes_before_schedule_floor(self):
        f, mask = checkerboard_instance()
        u, cert, recs = continuation(f, mask, params_for(), SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert recs[-1].delta > 1e-8

    def test_never_returns_without_certificate(self):
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        cfg = SolverConfig(delta0=0.1, delta_min=0.1, gap_tol=1e-30)
        u, cert, recs = continuation(f, mask, params_for(), cfg)
        assert len(recs) == 1  # schedule exhausted after one level
        assert np.isfinite(cert.relative_gap)

    # certify warns of a dual feasibility margin below 1e-12: at large mu and
    # [0, 255] data some |tau| rounds to within 1e-12 of cbar.
    @pytest.mark.filterwarnings("ignore:dual feasibility margin:RuntimeWarning")
    @settings(max_examples=30)
    @given(
        st.floats(-6.0, 6.0),
        st.floats(1.01, 8.0),
        st.floats(1.01, 20.0),
        st.sampled_from([1.0, 255.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_extreme_parameters_never_raise(self, log_lam, zeta, mu, scale, seed):
        f, mask = random_instance(np.random.default_rng(seed), shape=(5, 5))
        params = ModelParams(lam=10.0**log_lam, zeta=zeta, density=DensityParams(mu))
        # The capped levels keep the run short; the certificate is computed
        # for whatever iterate a level ends at.
        cfg = SolverConfig(inner_max_iters=100)
        u, cert, recs = continuation(scale * f, mask, params, cfg)
        assert not np.isnan(cert.relative_gap)
        assert cert.relative_gap >= 0.0
        assert cert.dual_value <= cert.primal_value

    @settings(max_examples=30)
    @given(
        st.integers(1, 12),
        st.booleans(),
        st.booleans(),
        st.floats(-3.0, 4.0),
        st.floats(1.05, 4.0),
        st.floats(1.05, 15.0),
        st.integers(0, 2**32 - 1),
    )
    def test_strips_and_single_known_pixel_never_raise(
        self, n, vertical, single_known, log_lam, zeta, mu, seed
    ):
        # 1 x N and N x 1 grids reach every edge slice of the divergence.
        rng = np.random.default_rng(seed)
        shape = (n, 1) if vertical else (1, n)
        f = rng.uniform(size=(*shape, 2))
        if single_known:
            mask = np.ones(shape, dtype=bool)
        else:
            mask = rng.uniform(size=shape) < 0.5
        mask.flat[rng.integers(n)] = False
        params = ModelParams(lam=10.0**log_lam, zeta=zeta, density=DensityParams(mu))
        cfg = SolverConfig(inner_max_iters=100)
        u, cert, recs = continuation(f, mask, params, cfg)
        assert not np.isnan(cert.relative_gap)
        assert cert.relative_gap >= 0.0
        assert cert.dual_value <= cert.primal_value

    @pytest.mark.parametrize(
        "case",
        [
            {},
            {"scale": 255.0},
            {"mu": 1.01},
            {"mu": 20.0},
            {"zeta": 1.01},
            {"zeta": 1.05},
            {"zeta": 1.05, "hole": False},
            {"zeta": 8.0},
            {"lam": 1e-4},
            {"lam": 1e6},
            {"known": 2},
            {"shape": (1, 32)},
            {"shape": (32, 1)},
            {"shape": (1, 1)},
        ],
        ids=lambda case: "-".join(f"{k}={v}" for k, v in case.items()) or "blocks",
    )
    def test_edge_inputs_certify(self, case):
        # 8 x 8 noisy blocks with a central hole, mu = 2, zeta = 2, lam = 10
        # and the default schedule, one setting changed at a time.  Denoising
        # at zeta = 1.05 clips a gap that rounding made negative: the dual
        # value is then reported as the primal value.
        h, w = case.get("shape", (32, 32))
        rng = np.random.default_rng([4001, 0])
        levels = rng.uniform(size=(8, 8, 1))
        f = levels[np.arange(h) * 8 // h][:, np.arange(w) * 8 // w]
        f = case.get("scale", 1.0) * np.clip(f + rng.normal(0.0, 0.05, f.shape), 0.0, 1.0)
        mask = np.zeros((h, w), dtype=bool)
        if case.get("known") == 2:
            mask[:] = True
            mask[0, 0] = mask[-1, -1] = False
        elif h * w > 1 and case.get("hole", True):
            # the central 3/8..5/8 block, at least one line wide
            mask[3 * h // 8 : -(-5 * h // 8), 3 * w // 8 : -(-5 * w // 8)] = True
        params = ModelParams(
            lam=case.get("lam", 10.0),
            zeta=case.get("zeta", 2.0),
            density=DensityParams(case.get("mu", 2.0)),
        )
        u, cert, recs = continuation(f, mask, params, SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert cert.dual_value <= cert.primal_value

    @pytest.mark.parametrize("channels", [1, 3])
    def test_input_layout_does_not_change_the_solve(self, channels):
        f, mask = random_instance(np.random.default_rng(17), shape=(12, 10), channels=channels)
        outputs, inner = set(), set()
        for g in layouts(f):
            u, cert, recs = continuation(g, mask, params_for(), SolverConfig())
            assert u.flags.c_contiguous
            records = tuple(dataclasses.replace(r, wall_seconds=0.0) for r in recs)
            outputs.add((u.tobytes(), cert, records))
            # default_initial keeps the layout of g, so u0 and f both vary.
            u0 = default_initial(g, mask)
            res = minimize_smooth(u0, 1e-2, g, mask, params_for(), SolverConfig())
            inner.add((np.ascontiguousarray(res.u).tobytes(), res.iterations, res.evaluations))
        assert len(outputs) == 1
        assert len(inner) == 1

    def test_refinement_consistency_diagnostic(self):
        # The same scene at two grid resolutions certifies at both; only a
        # qualitative diagnostic, the joint (lambda, h) scaling is open.
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        fine_f = np.repeat(np.repeat(f, 2, axis=0), 2, axis=1)
        fine_mask = np.repeat(np.repeat(mask, 2, axis=0), 2, axis=1)
        _, cert_a, _ = continuation(f, mask, params_for(), SolverConfig())
        _, cert_b, _ = continuation(fine_f, fine_mask, params_for(), SolverConfig())
        assert cert_a.relative_gap <= 1e-4
        assert cert_b.relative_gap <= 1e-4


class TestRichardson:
    """continuation's Richardson point (``solver._richardson``)."""

    def test_point_is_clamped_to_the_ball(self):
        # v + (v - u1)/9 leaves the ball |v| <= L = 1 wherever f = 1.  The
        # point is formed in an array of its own, u1 and v left as they were,
        # and takes the delta-free certificate whatever the viscosity of params.
        f, mask = checkerboard_instance()
        params, u1 = params_for().with_delta(0.01), np.full(f.shape, 0.5)
        raw = f + 0.01 / (0.1 - 0.01) * (f - u1)
        v = f.copy()
        point = solver._richardson(v, u1, 0.01 / (0.1 - 0.01), 1.0)
        assert point is not u1 and point is not v and raw.max() > 1.0
        assert (u1 == 0.5).all() and same_bits(v, f)
        assert same_bits(point, clamp_to_ball(raw, 1.0))
        assert check_max_principle(point, f, mask).passed
        cert = solver.certify(point, f, mask, params, 1.0)
        assert cert == dual.certify(point, f, mask, params.without_viscosity(), 1.0)

    @pytest.mark.parametrize("zeta", [1.5, 2.0, 3.0])
    def test_returned_point_obeys_max_principle(self, zeta):
        rng = np.random.default_rng(21)
        cases = [INSTANCES[name]() for name in INSTANCES]
        cases += [random_instance(rng, shape=(9, 7), channels=c, damage=0.4) for c in (1, 2)]
        for f, mask in cases:
            u, _, recs = continuation(f, mask, params_for(zeta=zeta), SolverConfig())
            assert check_max_principle(u, f, mask).passed
            assert recs[-1].extrapolated_gap is not None

    def test_returned_certificate_is_the_returned_points(self):
        # The Richardson point and the iterate take the one delta-free
        # certificate, bit for bit.  At gap_tol = 1e-2 the first level
        # certifies before there is a point, so the iterate is returned.
        params = params_for()
        returned = set()
        for cfg in (SolverConfig(), SolverConfig(gap_tol=1e-2)):
            for name in INSTANCES:
                f, mask = INSTANCES[name]()
                u, cert, recs = continuation(f, mask, params, cfg)
                last = recs[-1]
                returned.add(last.better_point)
                if last.better_point == "extrapolated":
                    assert last.extrapolated_gap == cert.relative_gap < last.relative_gap
                else:
                    assert last.relative_gap == cert.relative_gap
                    assert last.extrapolated_gap is None or cert.relative_gap <= last.extrapolated_gap
                expected = dual.certify(u, f, mask, params, sup_known_norm(f, mask))
                assert repr(cert) == repr(expected), name
        assert returned == {"iterate", "extrapolated"}

    def test_tiny_gap_tol_never_stops_certified(self):
        cfg = SolverConfig(gap_tol=1e-30, delta_min=1e-4)
        for name in INSTANCES:
            f, mask = INSTANCES[name]()
            _, _, recs = continuation(f, mask, params_for(), cfg)
            assert len(recs) == 4
            assert all(r.stop_reason != "certified" for r in recs), name
            assert recs[0].extrapolated_gap is None
            assert all(r.extrapolated_gap is not None for r in recs[1:])

    @pytest.mark.parametrize("gap_tol", [1e-4, 1e-6])
    def test_certified_levels_clear_a_quarter(self, gap_tol):
        # Every level after the first checks its point once, after 2
        # iterations.  No instance here certifies a level at 1e-6, where only
        # the final gap and the first level are asserted.
        cfg = SolverConfig(gap_tol=gap_tol)
        certified = 0
        for name in INSTANCES:
            f, mask = INSTANCES[name]()
            _, cert, recs = continuation(f, mask, params_for(), cfg)
            assert cert.relative_gap <= gap_tol
            for r in recs[1:]:
                if r.stop_reason != "certified":
                    continue
                certified += 1
                assert r.inner_iterations == 2
                assert r.extrapolated_gap <= gap_tol / 4
            assert recs[0].stop_reason != "certified"
        assert certified >= (gap_tol == 1e-4)

    def test_certify_calls_per_level(self, monkeypatch):
        # Each level certifies its iterate once its solves return and, from
        # the second level on, its point.  A later level certifies the point
        # once more, between its solve capped at 2 and the solve of the rest,
        # and a check that stops the level leaves that point and certificate
        # standing.  At gap_tol 1e-6 no check stops a level.
        calls = record_calls(monkeypatch)
        levels = {
            "stopped": ["solve", "certify", "certify"],
            "ran on": ["solve", "certify", "solve", "certify", "certify"],
        }
        kinds = set()
        for gap_tol in (1e-4, 1e-6):
            cfg = SolverConfig(gap_tol=gap_tol)
            for name in INSTANCES:
                f, mask = INSTANCES[name]()
                calls.clear()
                _, _, recs = continuation(f, mask, params_for(), cfg)
                expected = ["solve", "certify"]
                for r in recs[1:]:
                    kind = "stopped" if r.stop_reason == "certified" else "ran on"
                    kinds.add((gap_tol, kind))
                    expected += levels[kind]
                assert calls == expected, (gap_tol, name)
        assert kinds == {(1e-4, "stopped"), (1e-4, "ran on"), (1e-6, "ran on")}

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_later_level_keeps_the_iteration_cap(self, monkeypatch, cap):
        # From a start solved at delta0, the checkerboard's first level takes
        # no iteration and its second checks its point.  With a cap of
        # 1 or 2 the first solve is the whole level and nothing is checked;
        # with 3 the level checks once after 2 iterations, does not certify,
        # and its second solve runs the one iteration left.
        f, mask = checkerboard_instance()
        params, cfg = params_for(), SolverConfig(inner_max_iters=cap)
        start_cfg = SolverConfig(inner_tol=cfg.gap_tol * cfg.delta0)
        start = minimize_smooth(default_initial(f, mask), cfg.delta0, f, mask, params, start_cfg)
        calls = record_calls(monkeypatch)
        _, _, recs = continuation(f, mask, params, cfg, u0=start.u)
        assert len(recs) > 2 and recs[0].inner_iterations == 0
        for r in recs:
            assert r.inner_iterations <= cap
            assert r.stop_reason != "cap" or r.inner_iterations == cap
        second = ["solve", "certify", "solve"] if cap == 3 else ["solve"]
        assert calls[: len(second) + 4] == ["solve", "certify", *second, "certify", "certify"]
        assert recs[1].stop_reason == "cap" and recs[1].inner_iterations == cap


class TestClampingAndMaxPrinciple:
    def test_clamping_never_increases_energy(self):
        rng = np.random.default_rng(3)
        params = params_for(lam=2.0, zeta=1.8)
        for _ in range(30):
            f, mask = random_instance(rng, shape=(5, 5), channels=2)
            bound = sup_known_norm(f, mask)
            u = rng.normal(size=f.shape) * 2.0
            before = primal_energy(u, f, mask, params)
            after = primal_energy(clamp_to_ball(u, bound), f, mask, params)
            assert after <= before + 1e-12

    def test_solver_output_obeys_max_principle(self):
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        u, _, _ = continuation(f, mask, params_for(), SolverConfig())
        assert check_max_principle(u, f, mask).passed

    def test_trivial_extension_passes(self):
        rng = np.random.default_rng(4)
        f, mask = random_instance(rng)
        u = f.copy()
        u[mask] = 0.0
        assert check_max_principle(u, f, mask).passed

    def test_adversarial_spike_fails_with_margin(self):
        f = np.full((4, 4, 1), 0.5)
        mask = np.zeros((4, 4), dtype=bool)
        u = f.copy()
        u[2, 2, 0] = 1.0  # interior spike at 2L with L = 0.5
        check = check_max_principle(u, f, mask)
        assert not check.passed
        assert check.margin == pytest.approx(-0.5, abs=1e-12)
        assert check.bound == pytest.approx(0.5)
