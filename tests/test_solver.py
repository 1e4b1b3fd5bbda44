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

from conftest import bridge_instance, checkerboard_instance, layouts, random_instance
import viscotv
from viscotv import energy, solver
from viscotv.density import DensityParams
from viscotv.dual import sup_known_norm
from viscotv.energy import ModelParams, euler_residual, primal_energy
from viscotv.grid import clamp_to_ball
from viscotv.solver import (
    SolverConfig,
    check_max_principle,
    continuation,
    default_initial,
    minimize_smooth,
)


def params_for(mu=2.0, lam=10.0, zeta=2.0):
    return ModelParams(lam=lam, zeta=zeta, density=DensityParams(mu))


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
        for cap in (2.5, True, 0):
            with pytest.raises(ValueError, match="inner_max_iters"):
                SolverConfig(inner_max_iters=cap)


class TestMinimizeSmooth:
    def test_requires_positive_delta(self):
        f, mask = bridge_instance()
        with pytest.raises(ValueError):
            minimize_smooth(f, 0.0, f, mask, params_for(), SolverConfig())

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
        monkeypatch.setattr(solver, "_fidelity_prox", lambda w, *args: w + 1.0)
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
        # the exact total is summed once for u0 and once per candidate that
        # passes it, and a passing candidate lies strictly below u0, so it is
        # accepted.  The weak fidelity (lam = 0.1) leaves the step to the
        # density's curvature, which rejects the first trial steps.
        calls = {"fsum": 0, "points": 0}
        fsum, point_init = energy._fsum, energy._Point.__init__

        def counting_fsum(values):
            calls["fsum"] += 1
            return fsum(values)

        def counting_init(self, *args):
            calls["points"] += 1
            point_init(self, *args)

        monkeypatch.setattr(energy, "_fsum", counting_fsum)
        monkeypatch.setattr(energy._Point, "__init__", counting_init)
        f, mask = checkerboard_instance(n=10, block=(4, 7))
        cfg = SolverConfig(inner_max_iters=1)
        params = params_for(lam=0.1, zeta=zeta)
        res = minimize_smooth(default_initial(f, mask), 1e-2, f, mask, params, cfg)
        assert len(res.energy_history) == 2
        assert calls["fsum"] == 2
        assert calls["points"] > 3  # u0, then at least two backtracked candidates

    def test_evaluations_count_every_candidate(self, monkeypatch):
        # Every point but the start is a candidate, accepted or not.
        calls = {"points": 0}
        point_init = energy._Point.__init__

        def counting_init(self, *args):
            calls["points"] += 1
            point_init(self, *args)

        monkeypatch.setattr(energy._Point, "__init__", counting_init)
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

        def spy(w, *args):
            cand = prox(w, *args)
            trials.append((args[-1], cand.copy(order="K")))
            return cand

        monkeypatch.setattr(solver, "_fidelity_prox", spy)
        f, mask = random_instance(np.random.default_rng(11), shape=(8, 8))
        params, delta = params_for(zeta=2.0), 1e-2
        u0 = default_initial(f, mask)
        res = minimize_smooth(u0, delta, f, mask, params, SolverConfig(inner_tol=1e-6))
        assert res.stop_reason == "residual" and res.iterations >= 6

        # The accepted candidates are those whose energy is the next history entry.
        pd = params.with_delta(delta)
        iterates, firsts = [u0], [0]
        for i, (_, cand) in enumerate(trials):
            if energy._Point(cand, f, mask, pd).total == res.energy_history[len(iterates)]:
                iterates.append(cand)
                firsts.append(i + 1)
                if len(iterates) == len(res.energy_history):
                    break
        assert len(iterates) == res.iterations + 1
        assert firsts[-1] == len(trials)  # the last accepted candidate is the last trial

        points = [energy._Point(u, f, mask, pd) for u in iterates]
        for point in points:
            point.residual()
        shorter = 0
        for j in range(1, res.iterations):  # iteration j is done, j + 1 starts
            s = iterates[j] - iterates[j - 1]
            y = points[j].density_residual - points[j - 1].density_residual
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


class TestContinuation:
    def test_constant_denoise_shortcut(self):
        f = np.full((8, 8, 2), 0.5)
        mask = np.zeros((8, 8), dtype=bool)
        u, cert, recs = continuation(f, mask, params_for(), SolverConfig())
        assert np.array_equal(u, f)
        assert cert.relative_gap == 0.0
        assert len(recs) == 1
        assert recs[0].inner_iterations == 0

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
        # as minimize_smooth solves it with the caller's config.
        f, mask = checkerboard_instance()
        cfg = SolverConfig(gap_tol=1e-30, delta_min=1e-3)
        u, _, recs = continuation(f, mask, params_for(), cfg)
        assert len(recs) == 3
        v, delta = default_initial(f, mask), cfg.delta0
        for _ in recs:
            v = minimize_smooth(v, delta, f, mask, params_for(), cfg).u
            delta *= cfg.delta_factor
        assert u.tobytes() == v.tobytes()

    def test_records_carry_level_evaluations(self):
        f, mask = checkerboard_instance()
        cfg = SolverConfig()
        _, _, recs = continuation(f, mask, params_for(), cfg)
        v, delta = default_initial(f, mask), cfg.delta0
        for r in recs:
            level_cfg = SolverConfig(inner_tol=max(cfg.inner_tol, cfg.gap_tol * delta))
            inner = minimize_smooth(v, delta, f, mask, params_for(), level_cfg)
            assert (r.evaluations, r.stop_reason) == (inner.evaluations, inner.stop_reason)
            assert r.evaluations >= r.inner_iterations
            v, delta = inner.u, delta * cfg.delta_factor

    def test_huge_finite_start_does_not_raise(self):
        # The start's energy sums past the float range (each pixel 1.4e306).
        f = np.zeros((8, 16, 1))
        mask = np.zeros((8, 16), dtype=bool)
        params = params_for(lam=1.0)
        u, cert, recs = continuation(f, mask, params, SolverConfig(), u0=np.full(f.shape, 1.7e153))
        assert not np.isnan(cert.relative_gap)
        assert recs[0].I_delta_value < math.inf

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

    # certify warns of a tiny dual feasibility margin where gradients are enormous.
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

    @pytest.mark.parametrize(
        "case",
        [
            {},
            {"scale": 255.0},
            {"mu": 1.01},
            {"mu": 20.0},
            {"zeta": 1.01},
            {"zeta": 1.05},
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
        # and the default schedule, one setting changed at a time.
        h, w = case.get("shape", (32, 32))
        rng = np.random.default_rng([4001, 0])
        levels = rng.uniform(size=(8, 8, 1))
        f = levels[np.arange(h) * 8 // h][:, np.arange(w) * 8 // w]
        f = case.get("scale", 1.0) * np.clip(f + rng.normal(0.0, 0.05, f.shape), 0.0, 1.0)
        mask = np.zeros((h, w), dtype=bool)
        if case.get("known") == 2:
            mask[:] = True
            mask[0, 0] = mask[-1, -1] = False
        elif h * w > 1:  # the central 3/8..5/8 block, at least one line wide
            mask[3 * h // 8 : -(-5 * h // 8), 3 * w // 8 : -(-5 * w // 8)] = True
        params = ModelParams(
            lam=case.get("lam", 10.0),
            zeta=case.get("zeta", 2.0),
            density=DensityParams(case.get("mu", 2.0)),
        )
        u, cert, recs = continuation(f, mask, params, SolverConfig())
        assert cert.relative_gap <= 1e-4
        assert cert.dual_value <= cert.primal_value

    def test_validates_inputs(self):
        f, mask = checkerboard_instance(n=4, block=(1, 3))
        with pytest.raises(ValueError):
            continuation(f, np.ones((4, 4), dtype=bool), params_for(), SolverConfig())
        bad = f.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            continuation(bad, mask, params_for(), SolverConfig())

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
