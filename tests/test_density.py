import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import layouts, same_bits
from oracle import phi_by_quadrature
from viscotv.density import (
    _RADIAL_TOL,
    DensityParams,
    _flux_factor,
    _phi_prime,
    density_gradient,
    density_value,
    phi,
    phi_conjugate,
    phi_prime,
    recession_constant,
)
from viscotv.energy import ModelParams, _Plan
from viscotv.grid import _plane_rows, _root_sum_squares, _unstitched, pixel_norms

MUS = (1.5, 2.0, 3.0)


def mat(*entries):
    return np.array(entries, dtype=float).reshape(2, -1)


class TestParams:
    def test_rejects_mu_at_or_below_one(self):
        for bad in (1.0, 0.5, -2.0, float("nan"), "3"):
            with pytest.raises(ValueError, match="mu"):
                DensityParams(bad)

    def test_rejects_negative_delta(self):
        # A bool is no delta either, though True compares as 1.
        for bad in (-1e-9, True, np.bool_(True)):
            with pytest.raises(ValueError, match="delta"):
                DensityParams(2.0, bad)

    def test_recession_is_finite_positive(self):
        for mu in MUS:
            c = recession_constant(DensityParams(mu))
            assert c == 1.0 / (mu - 1.0) > 0.0


class TestPhi:
    def test_examples(self):
        assert phi(DensityParams(2.0), 0.0) == 0.0
        assert phi(DensityParams(2.0), 1.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-14)
        assert phi(DensityParams(3.0), 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_prime_examples(self):
        for mu in MUS:
            assert phi_prime(DensityParams(mu), 0.0) == 0.0
        assert phi_prime(DensityParams(2.0), 1.0) == pytest.approx(0.5, abs=1e-14)
        assert phi_prime(DensityParams(3.0), 1.0) == pytest.approx(0.375, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi(DensityParams(2.0), -0.1)
        with pytest.raises(ValueError):
            phi_prime(DensityParams(2.0), np.array([0.5, -1.0]))

    @pytest.mark.parametrize("mu", [1.0001, 1.2, 1.5, 2.0, 3.0, 15.0])
    def test_extreme_arguments(self, mu):
        # phi grows toward slope cbar = 1/(mu - 1), so at mu < 2 it passes the
        # float max before t = 1e308; it is inf there and at t = inf, and
        # neither warns.  Convexity and phi(0) = 0 put phi(t) between the
        # supporting line at t/2 and t phi'(t).
        p = DensityParams(mu)
        ts = np.array([1e300, 1e308, math.inf])
        values = phi(p, ts)
        for t, value in zip(ts[:2].tolist(), values[:2].tolist()):
            assert phi_prime(p, t / 2) * (t / 2) <= value <= phi_prime(p, t) * t
        assert (values[1] == math.inf) == (mu < 2.0)
        assert values[2] == math.inf
        assert [phi(p, t) for t in ts.tolist()] == values.tolist()

    @pytest.mark.parametrize("fn", [phi, phi_prime, phi_conjugate])
    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
    def test_nan_argument_rejected(self, fn, t):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(DensityParams(2.0), t)

    def test_derivatives_by_finite_differences(self):
        h = 1e-6
        for mu in MUS:
            p = DensityParams(mu)
            for t in (0.3, 1.0, 7.0):
                fd1 = (phi(p, t + h) - phi(p, t - h)) / (2 * h)
                fd2 = (phi_prime(p, t + h) - phi_prime(p, t - h)) / (2 * h)
                # the stencil itself carries ~eps/h cancellation noise
                assert phi_prime(p, t) == pytest.approx(fd1, rel=1e-8)
                assert (1.0 + t) ** (-mu) == pytest.approx(fd2, rel=1e-5)

    def test_vectorized_matches_scalar(self):
        p = DensityParams(1.7)
        ts = np.array([0.0, 0.3, 2.0, 50.0])
        assert np.allclose(phi(p, ts), [phi(p, float(t)) for t in ts])
        assert np.allclose(phi_prime(p, ts), [phi_prime(p, float(t)) for t in ts])

    @given(st.floats(0.0, 200.0), st.floats(0.0, 200.0))
    def test_midpoint_convexity(self, a, b):
        p = DensityParams(2.5)
        mid = phi(p, 0.5 * (a + b))
        assert mid <= 0.5 * (phi(p, a) + phi(p, b)) + 1e-12

    @given(st.floats(0.0, 1e6))
    def test_linear_growth_sandwich(self, t):
        for mu in MUS:
            p = DensityParams(mu)
            cbar = recession_constant(p)
            assert phi(p, t) <= cbar * t + 1e-12
            lower = phi_prime(p, 1.0) * (t - 1.0) + phi(p, 1.0)
            assert phi(p, t) >= lower - 1e-12

    def test_prime_strictly_increasing_below_recession(self):
        for mu in MUS:
            p = DensityParams(mu)
            ts = np.linspace(0.0, 100.0, 401)
            vals = phi_prime(p, ts)
            assert (np.diff(vals) > 0.0).all()
            assert vals[-1] < recession_constant(p)

    def test_closed_form_matches_quadrature_spot(self):
        for mu in (1.5, 3.0):
            p = DensityParams(mu)
            for t in (0.1, 1.0):
                q = phi_by_quadrature(mu, t)
                assert abs(phi(p, t) - q) <= 1e-10 * abs(q)


class TestPhiNearZero:
    """phi ~ t^2/2 near 0, where the closed forms' cancellation exceeds phi itself."""

    T = np.geomspace(1e-300, 1e-3, 20000)

    @pytest.mark.parametrize("mu", [1.0 + 1e-7, 1.0001, 1.01, 1.4999, 1.9, 2.0, 15.0, 50.0])
    def test_nonnegative(self, mu):
        assert (phi(DensityParams(mu), self.T) >= 0.0).all()

    @pytest.mark.parametrize("mu", [1.0 + 1e-7, 1.0001, 1.01, 1.4999, 1.9, 15.0, 50.0])
    def test_between_taylor_bounds_below_the_threshold(self, mu):
        # phi'' = (1 + t)^-mu lies in [(1 + t)^-mu, 1] on [0, t], so
        # (t^2/2)(1 + t)^-mu <= phi(t) <= t^2/2.  (1 + t)^-mu is taken as
        # exp(-mu log1p(t)), which does not round 1 + t to 1.
        t = self.T[self.T < _RADIAL_TOL]
        half_square = 0.5 * t * t
        value = phi(DensityParams(mu), t)
        assert (half_square * np.exp(-mu * np.log1p(t)) <= value).all()
        assert (value <= half_square).all()


class TestDensityValue:
    def test_zero_matrix(self):
        assert density_value(DensityParams(2.0, 0.3), np.zeros((2, 3))) == 0.0

    def test_unit_norm(self):
        P = mat(1.0, 0.0, 0.0, 0.0)
        assert density_value(DensityParams(2.0), P) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-14
        )

    def test_viscous_term(self):
        P = mat(1.0, 0.0, 0.0, 0.0)
        expected = 0.1 + 1.0 - math.log(2.0)
        assert density_value(DensityParams(2.0, 0.2), P) == pytest.approx(expected, abs=1e-14)

    def test_monotone_in_delta(self):
        P = mat(0.3, -0.8, 0.1, 0.4)
        base = density_value(DensityParams(2.0, 0.0), P)
        assert density_value(DensityParams(2.0, 0.5), P) > base


class TestDensityGradient:
    def test_zero(self):
        out = density_gradient(DensityParams(3.0, 0.7), np.zeros((2, 2)))
        assert (out == 0.0).all()

    def test_radial_formula(self):
        out = density_gradient(DensityParams(2.0), mat(1.0, 0.0, 0.0, 0.0))
        assert np.allclose(out, mat(0.5, 0.0, 0.0, 0.0), atol=1e-14)

    def test_matches_finite_difference_of_value(self):
        rng = np.random.default_rng(0)
        p = DensityParams(2.0, 0.05)
        P = rng.normal(size=(2, 3))
        g = density_gradient(p, P)
        h = 1e-7
        for idx in np.ndindex(2, 3):
            up, dn = P.copy(), P.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (density_value(p, up) - density_value(p, dn)) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_norm_approaches_recession(self):
        P = mat(1.0, 0.0, 0.0, 0.0) * 1e6
        out = density_gradient(DensityParams(2.0), P)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-5

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.0, 0.4))
    def test_gradient_bound(self, a, b, delta):
        p = DensityParams(2.0, delta)
        P = mat(a, b, 0.1, -0.2)
        norm = float(np.linalg.norm(density_gradient(p, P)))
        r = float(np.linalg.norm(P))
        assert norm <= delta * r + recession_constant(p) * (1.0 + 1e-12)
        assert norm < delta * r + recession_constant(p) + 1e-12

    def test_tiny_argument_is_continuous(self):
        p = DensityParams(2.0)
        small = density_gradient(p, mat(1e-13, 0.0, 0.0, 0.0))
        assert small[0, 0] == pytest.approx(1e-13, rel=1e-6)


class TestDensityGradientOut:
    """``density_gradient`` is ``(phi'(|P|)/|P| + delta) * P``, one multiply, in P's layout.

    ``energy._Plan.flux`` writes the same bits over the plan's gradient rows.
    """

    @staticmethod
    def fields(channels):
        # Gradient-shaped (4, 5, 2, M) fields with a zero pixel, one in the
        # Taylor range of the radial quotient and one far out on the ray.
        rng = np.random.default_rng(channels)
        P = rng.normal(size=(4, 5, 2, channels))
        P[0, 0] = 0.0
        P[1, 2] *= 1e-14
        P[3, 4] *= 1e8
        assert pixel_norms(P)[1, 2] < _RADIAL_TOL
        return layouts(P)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("mu", [2.0, 3.0])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_in_place_bits_equal_fresh(self, delta, mu, channels):
        p = DensityParams(mu, delta)
        for P in self.fields(channels):
            before = P.copy()
            fresh = density_gradient(p, P)
            assert np.array_equal(P, before)
            assert fresh.strides == P.strides
            # delta is added to the delta = 0 quotient once, and the flux
            # rounded once: the bits of (q + delta)*P, not of q*P + delta*P.
            q = _flux_factor(DensityParams(mu), pixel_norms(P)) + delta
            expected = q[..., None, None] * P
            assert same_bits(fresh, expected)
            # The plan's flux, written over its gradient rows in place.
            params = ModelParams(lam=1.0, zeta=2.0, density=p)
            plan = _Plan(np.zeros((4, 5, channels)), np.zeros((4, 5), dtype=bool), params)
            plan.grad_rows[...] = _plane_rows(P, (2, 3, 0, 1))
            _root_sum_squares(plan.grad_pixels, plan.norms, plan.temp)
            plan.flux(np.empty(plan.dev_rows.shape))
            assert same_bits(_unstitched(plan.grad_rows, 4, 5), expected)


class TestRadialQuotient:
    R = np.array([0.0, 1e-13, 1e-3, 1.0, 1e8, 1e300])

    def test_mu2_closed_form_equals_general_formula_at_mu2(self):
        # The general path phi'(r)/r with its Taylor extension near 0,
        # evaluated at mu = 2 exactly, against the exact 1/(1 + r).
        r = self.R
        safe = np.where(r < 1e-12, 1.0, r)
        general = np.where(r < 1e-12, 1.0 - r, _phi_prime(2.0, safe) / safe)
        q = _flux_factor(DensityParams(2.0), r)
        assert np.isfinite(q).all()
        assert (np.abs(q - general) <= 1e-9 * general).all()

    @pytest.mark.parametrize("mu", [2.0 - 2e-6, 2.0 + 2e-6])
    def test_continuous_across_the_mu2_switch(self, mu):
        # Only mu = 2 itself takes the closed form.  phi'(r)/r itself moves by
        # up to |mu - 2| relative between the two mu (at large r, as
        # 1/((mu - 1) r)), so that is the tolerance, not rounding.
        q2 = _flux_factor(DensityParams(2.0), self.R)
        q = _flux_factor(DensityParams(mu), self.R)
        assert (np.abs(q - q2) <= 1.01 * abs(mu - 2.0) * q2).all()


def conjugate_by_grid_sweep(mu, s):
    """Independent discrete sup of s*t - phi(t) over a log grid plus refinement."""
    p = DensityParams(mu)
    t_max = 10.0
    while True:  # widen until the sweep brackets the maximizer
        ts = np.concatenate([[0.0], np.geomspace(1e-6, t_max, 4000)])
        vals = s * ts - phi(p, ts)
        i = int(np.argmax(vals))
        if i < len(ts) - 2 or t_max > 1e12:
            break
        t_max *= 10.0
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc = s * c - phi(p, c)
    fd = s * d - phi(p, d)
    for _ in range(300):
        if b - a < 1e-12 * (1.0 + b):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = s * c - phi(p, c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = s * d - phi(p, d)
    t = 0.5 * (a + b)
    return s * t - phi(p, t)


class TestConjugate:
    def test_zero(self):
        for mu in MUS:
            assert phi_conjugate(DensityParams(mu), 0.0) == 0.0

    def test_example_against_grid_sweep(self):
        val = phi_conjugate(DensityParams(2.0), 0.5)
        assert val == pytest.approx(-0.5 - math.log(0.5), abs=1e-12)
        assert val == pytest.approx(conjugate_by_grid_sweep(2.0, 0.5), abs=1e-8)
        # mu = 3: phi*(s) = 1 - s - sqrt(1 - 2s), for s up to phi'(1e6)
        p = DensityParams(3.0)
        s = phi_prime(p, np.linspace(0.0, 1e6, 4097))
        expected = 1.0 - s - np.sqrt(1.0 - 2.0 * s)
        assert np.allclose(phi_conjugate(p, s), expected, rtol=0.0, atol=1e-12)

    def test_infinite_at_recession_for_small_mu(self):
        assert phi_conjugate(DensityParams(2.0), 1.0) == math.inf
        assert phi_conjugate(DensityParams(1.5), 2.0) == math.inf
        assert phi_conjugate(DensityParams(2.0), 1.5) == math.inf

    def test_boundary_value_above_two(self):
        p = DensityParams(3.0)
        assert phi_conjugate(p, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert phi_conjugate(p, 0.6) == math.inf

    def test_rejects_negative_and_viscous(self):
        with pytest.raises(ValueError):
            phi_conjugate(DensityParams(2.0), -0.1)
        with pytest.raises(ValueError):
            phi_conjugate(DensityParams(2.0, 0.1), 0.3)

    def test_boundary_value_next_to_two(self):
        # Only mu = 2 itself takes the mu = 2 closed form (+inf at cbar).
        mu = 2.0 + 5e-7
        p = DensityParams(mu)
        assert phi_conjugate(p, recession_constant(p)) == pytest.approx(
            1.0 / ((mu - 1.0) * (mu - 2.0)), rel=1e-9
        )

    def test_overflow_to_inf_is_silent(self):
        # At mu near 1 the closed form's expm1 overflows to the correct +inf
        # well inside the ball.
        p = DensityParams(1.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi_conjugate(p, (1.0 - 1e-9) * recession_constant(p)) == math.inf

    def test_array_input(self):
        p = DensityParams(2.0)
        out = phi_conjugate(p, np.array([0.0, 0.5, 1.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(-0.5 - math.log(0.5), abs=1e-12)
        assert out[2] == math.inf

    @pytest.mark.parametrize("t_max", [200.0, 1e6])
    def test_finite_on_large_gradients(self, t_max):
        # norms of phi'(|grad u|) for data in [0, 255] and beyond
        rng = np.random.default_rng(0)
        for mu in MUS:
            p = DensityParams(mu)
            s = phi_prime(p, rng.uniform(0.0, t_max, 4096))
            assert np.isfinite(phi_conjugate(p, s)).all()

    @given(st.floats(0.0, 0.999))
    def test_grid_sweep_agreement(self, frac):
        for mu in MUS:
            p = DensityParams(mu)
            s = frac * recession_constant(p)
            assert phi_conjugate(p, s) == pytest.approx(
                conjugate_by_grid_sweep(mu, s), abs=1e-7, rel=1e-8
            )


class TestFenchelYoung:
    def test_equality_along_gradients(self):
        rng = np.random.default_rng(7)
        for mu in MUS:
            p = DensityParams(mu)
            for _ in range(200):
                P = rng.normal(size=(2, 2))
                P *= rng.uniform(0.0, 100.0) / max(np.linalg.norm(P), 1e-9)
                F = density_value(p, P)
                DF = density_gradient(p, P)
                lhs = F + phi_conjugate(p, float(np.linalg.norm(DF)))
                rhs = float(np.sum(P * DF))
                assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("mu", [2.0 - 5e-7, 2.0 + 5e-7])
    def test_equality_next_to_mu_two(self, mu):
        # phi, phi' and phi* all take the general closed forms here.
        p = DensityParams(mu)
        t = np.array([1e-2, 1.0, 1e2, 1e6])
        s = phi_prime(p, t)
        rhs = t * s - phi(p, t)
        assert np.all(np.abs(phi_conjugate(p, s) - rhs) <= 1e-10 * np.abs(rhs))

    @pytest.mark.parametrize("mu", [1.0 + 1e-7, 1.0001, 1.01])
    def test_equality_next_to_mu_one(self, mu):
        # cbar = 1/(mu - 1) is huge here; phi's form for mu < 1.5 keeps its
        # error near t * eps, where the form for mu >= 1.5 loses cbar * t * eps.
        p = DensityParams(mu)
        t = np.array([1e-6, 1e-2, 1.0, 1e2])
        s = phi_prime(p, t)
        assert np.all(np.abs(phi(p, t) + phi_conjugate(p, s) - t * s) <= 1e-12)

    def test_inequality_for_feasible_pairs(self):
        rng = np.random.default_rng(8)
        for mu in MUS:
            p = DensityParams(mu)
            cbar = recession_constant(p)
            for _ in range(200):
                P = rng.normal(size=(2, 2)) * rng.uniform(0.0, 30.0)
                Q = rng.normal(size=(2, 2))
                Q *= rng.uniform(0.0, (1.0 - 1e-6) * cbar) / max(
                    np.linalg.norm(Q), 1e-12
                )
                lhs = density_value(p, P) + phi_conjugate(p, float(np.linalg.norm(Q)))
                assert lhs >= float(np.sum(P * Q)) - 1e-12


class TestRecession:
    def test_limit_of_phi_over_t(self):
        assert phi(DensityParams(2.0), 1e6) / 1e6 == pytest.approx(1.0, abs=1e-4)
        assert phi(DensityParams(3.0), 1e6) / 1e6 == pytest.approx(0.5, abs=1e-4)
        # mu = 1.5 approaches its limit at rate O(1/sqrt(t)): 4e-3 at t = 1e6
        assert phi(DensityParams(1.5), 1e6) / 1e6 == pytest.approx(2.0, abs=4.1e-3)
        assert phi(DensityParams(1.5), 1e8) / 1e8 == pytest.approx(2.0, abs=1e-3)

    def test_values(self):
        assert recession_constant(DensityParams(2.0)) == 1.0
        assert recession_constant(DensityParams(3.0)) == 0.5
        assert recession_constant(DensityParams(1.5)) == 2.0
