import numpy as np
import pytest

from oracle import brute_force_minimize, fd_gradient, phi_by_quadrature
from viscotv.density import DensityParams, phi
from viscotv.energy import ModelParams, euler_residual


def params_for(mu=2.0, lam=10.0, zeta=2.0, delta=0.0):
    return ModelParams(lam=lam, zeta=zeta, density=DensityParams(mu, delta))


class TestQuadrature:
    def test_examples(self):
        assert phi_by_quadrature(2.0, 0.0) == 0.0
        assert phi_by_quadrature(2.0, 1.0) == pytest.approx(0.3068528, abs=1e-7)
        assert phi_by_quadrature(3.0, 1.0) == pytest.approx(0.25, abs=1e-11)

    def test_self_consistency_at_doubled_refinement(self):
        for mu, t in ((3.0, 1.0), (1.5, 10.0)):
            coarse = phi_by_quadrature(mu, t, tol=1e-11)
            fine = phi_by_quadrature(mu, t, tol=1e-13)
            assert coarse == pytest.approx(fine, abs=5e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_by_quadrature(2.0, -1.0)
        with pytest.raises(ValueError):
            phi_by_quadrature(1.0, 1.0)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_agrees_with_closed_form(self, mu, t):
        q = phi_by_quadrature(mu, t)
        c = phi(DensityParams(mu), t)
        assert abs(q - c) <= 1e-10 * max(abs(c), 1e-6)


class TestBruteForce:
    def test_constant_data(self):
        f = np.full((2, 2, 1), 0.4)
        mask = np.zeros((2, 2), dtype=bool)
        mask[1, 1] = True
        u, energy = brute_force_minimize(f, mask, params_for(lam=50.0), 0.4)
        assert np.max(np.abs(u - 0.4)) <= 1e-5
        assert energy <= 1e-9

    def test_bridge_ramp(self):
        f = np.array([[[0.0], [0.0], [0.0], [0.0], [1.0]]])
        mask = np.array([[False, True, True, True, False]])
        u, energy = brute_force_minimize(f, mask, params_for(lam=1e4), 1.0)
        expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.max(np.abs(u.ravel() - expected)) <= 1e-2

    def test_damaged_pixel_between_neighbors(self):
        f = np.array([[[0.2], [0.8]], [[0.6], [0.0]]])
        mask = np.array([[False, False], [False, True]])
        params = params_for(lam=1e3)
        u, energy = brute_force_minimize(f, mask, params, 0.8)
        # stationarity at the oracle's own minimizer
        resid = fd_gradient(u, f, mask, params, 1e-5)
        assert np.max(np.abs(resid)) <= 1e-3
        assert f.min() - 1e-6 <= u[1, 1, 0] <= f.max() + 1e-6

    def test_rejects_large_instances(self):
        f = np.zeros((3, 3, 1))
        mask = np.zeros((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            brute_force_minimize(f, mask, params_for(), 1.0)

    def test_rejects_multichannel(self):
        f = np.zeros((2, 2, 2))
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            brute_force_minimize(f, mask, params_for(), 1.0)


class TestFdGradient:
    def test_matches_euler_residual(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(size=(6, 6, 1))
        f = rng.uniform(size=(6, 6, 1))
        mask = rng.uniform(size=(6, 6)) < 0.3
        mask[0, 0] = False
        params = params_for(delta=0.1)
        fd = fd_gradient(u, f, mask, params, 1e-6)
        res = euler_residual(u, f, mask, params)
        assert np.max(np.abs(fd - res)) / np.max(np.abs(fd)) <= 1e-6

    def test_vanishes_at_brute_force_minimizer(self):
        f = np.array([[[0.1], [0.7]], [[0.4], [0.9]]])
        mask = np.array([[False, True], [False, False]])
        params = params_for(lam=20.0)
        u, _ = brute_force_minimize(f, mask, params, 0.9)
        fd = fd_gradient(u, f, mask, params, 1e-5)
        assert np.max(np.abs(fd)) <= 1e-4

    def test_requires_positive_step(self):
        f = np.zeros((2, 2, 1))
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            fd_gradient(f, f, mask, params_for(), 0.0)

    def test_constant_shift_invariance_without_fidelity(self):
        # With every pixel damaged the energy sees only differences, so the
        # residual of u + c matches the residual of u.  The all-damaged mask
        # is legal here because the oracle bypasses the solve-level validators.
        rng = np.random.default_rng(7)
        u = rng.uniform(size=(3, 2, 1))
        f = np.zeros_like(u)
        mask = np.ones((3, 2), dtype=bool)
        params = params_for()
        base = fd_gradient(u, f, mask, params, 1e-6)
        shifted = fd_gradient(u + 0.37, f, mask, params, 1e-6)
        assert np.max(np.abs(base - shifted)) <= 1e-8
