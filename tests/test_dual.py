import math

import numpy as np
import pytest

from conftest import (
    checkerboard_instance,
    hole_instance_color128,
    peak_allocation,
    random_instance,
)
from viscotv.density import DensityParams, density_gradient, phi_conjugate, recession_constant
from viscotv.dual import (
    _dual_value,
    _known_infimum,
    _scaled_dual,
    _split,
    certify,
    dual_from_primal,
    dual_value,
    sup_known_norm,
)
from viscotv.energy import ModelParams, primal_energy
from viscotv.grid import channel_norms, clamp_to_ball, divergence, gradient, pixel_norms
from viscotv.solver import SolverConfig, default_initial, minimize_smooth

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def params_for(mu=2.0, delta=0.0, lam=1.0, zeta=2.0):
    return ModelParams(lam=lam, zeta=zeta, density=DensityParams(mu, delta))


class TestDualFromPrimal:
    def test_constant_gives_zero(self):
        u = np.full((3, 3, 2), 0.2)
        tau, sigma = dual_from_primal(u, params_for(delta=0.3))
        assert (tau == 0.0).all() and (sigma == 0.0).all()

    def test_unit_gradient_norm(self):
        u = np.array([[[0.0], [1.0]]])
        tau, _ = dual_from_primal(u, params_for())
        assert np.linalg.norm(tau[0, 0]) == pytest.approx(0.5, abs=1e-14)

    def test_sigma_equals_tau_without_viscosity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(4, 5, 2))
        tau, sigma = dual_from_primal(u, params_for(delta=0.0))
        assert np.array_equal(tau, sigma)

    def test_sigma_adds_viscous_part(self):
        # Bit for bit: sigma is delta grad u + tau, the sum in either order.
        rng = np.random.default_rng(1)
        for channels in (1, 3):
            u = rng.normal(size=(4, 5, channels))
            for mu in (1.5, 2.0, 3.0):
                tau, sigma = dual_from_primal(u, params_for(mu=mu, delta=0.25))
                assert np.array_equal(sigma, 0.25 * gradient(u) + tau)

    def test_strict_feasibility(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(6, 6, 1)) * 100.0
        params = params_for(mu=1.5)
        tau, _ = dual_from_primal(u, params)
        norms = np.sqrt(np.sum(tau * tau, axis=(-2, -1)))
        assert norms.max() < recession_constant(params.density)


def infimum_by_line_search(d, f_val, lam, zeta):
    """Independent 1-d minimization of d.v + (lam/zeta)|v-f|^zeta along -d."""
    dn = np.linalg.norm(d)
    if dn == 0.0:
        return 0.0

    def value(t):
        v = f_val - t * d / dn
        return float(np.dot(d, v) + lam / zeta * np.linalg.norm(v - f_val) ** zeta)

    ts = np.linspace(0.0, 50.0, 10001)
    vals = [value(t) for t in ts]
    i = int(np.argmin(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    c, e = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fe = value(c), value(e)
    while b - a > 1e-13:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - GOLDEN * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, e, fe
            e = a + GOLDEN * (b - a)
            fe = value(e)
    return value(0.5 * (a + b))


def known_infimum(d, f_val, lam, zeta):
    """``dual._known_infimum`` at one pixel with channel vectors d and f_val."""
    return float(_known_infimum(d @ f_val, np.linalg.norm(d), lam, zeta))


class TestPointwiseInfima:
    def test_known_pixel_example(self):
        d, f = np.array([0.1]), np.array([0.5])
        assert known_infimum(d, f, 1.0, 2.0) == pytest.approx(0.045, abs=1e-15)

    def test_known_pixel_against_line_search(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = rng.integers(1, 4)
            d = rng.normal(size=m)
            f = rng.normal(size=m)
            lam = rng.uniform(0.2, 30.0)
            zeta = rng.uniform(1.1, 4.0)
            closed = known_infimum(d, f, lam, zeta)
            assert closed == pytest.approx(infimum_by_line_search(d, f, lam, zeta), abs=1e-8)
        # At these pairs lam**(-1/(zeta-1)) is beyond the float range while
        # the infimum is not.  |d| just above lam puts the minimizer inside
        # the searched segment; the comparison is on the part below d . f.
        f = np.array([0.3, 0.7])
        for lam, zeta, ratio in [(1e-4, 1.01, 1.03), (1e-20, 1.05, 1.15)]:
            d = np.array([0.6, -0.8]) * lam * ratio
            closed = known_infimum(d, f, lam, zeta)
            by_search = infimum_by_line_search(d, f, lam, zeta)
            assert closed - d @ f == pytest.approx(by_search - d @ f, rel=1e-9)
            assert closed - d @ f < 0.0

    def test_damaged_pixel_example(self):
        # On a 1 x 2 grid with the right pixel damaged, tau_x = 0.2 at the
        # left one gives d = -div tau = 0.2 there: the dual value falls by
        # 0.2 per unit of ball radius.
        f = np.zeros((1, 2, 1))
        mask = np.array([[False, True]])
        tau = np.zeros((1, 2, 2, 1))
        tau[0, 0, 0, 0] = 0.2
        params = params_for()
        slope = dual_value(tau, f, mask, params, 1.0) - dual_value(tau, f, mask, params, 2.0)
        assert slope == pytest.approx(0.2, abs=1e-15)

    def test_damaged_pixel_is_ball_infimum(self):
        # dual_value is the infimum over v, |v| <= bound on D, of the
        # Lagrangian  sum d . v + (lam/zeta) sum_known |v - f|^zeta
        # - sum phi*(|tau|), d = -div tau.  With v at its closed-form
        # minimizer on the known pixels, no sampled damaged v goes below it,
        # and v = -bound d/|d| on D attains it.
        rng = np.random.default_rng(4)
        lam, zeta = 3.0, 2.5
        params = params_for(lam=lam, zeta=zeta)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1:] = True
        for _ in range(20):
            f = rng.uniform(-0.5, 0.5, size=(3, 3, 2))
            tau = rng.uniform(-0.3, 0.3, size=(3, 3, 2, 2))
            bound = sup_known_norm(f, mask) * rng.uniform(1.0, 3.0)
            dv = dual_value(tau, f, mask, params, bound)
            d = -divergence(tau)
            d_norms = channel_norms(d)[..., None]
            v = f - (d_norms / lam) ** (1.0 / (zeta - 1.0)) * d / d_norms
            conj = float(np.sum(phi_conjugate(params.density, pixel_norms(tau))))

            def lagrangian(v):
                known = lam / zeta * np.sum(channel_norms(v - f)[~mask] ** zeta)
                return float(np.sum(d * v)) + known - conj

            for _ in range(50):
                w = rng.normal(size=(int(mask.sum()), 2))
                w *= bound * rng.uniform() ** 0.5 / np.linalg.norm(w, axis=1, keepdims=True)
                v[mask] = w
                assert dv <= lagrangian(v) + 1e-12
            v[mask] = -bound * d[mask] / d_norms[mask]
            assert dv == pytest.approx(lagrangian(v), abs=1e-12)


class TestDualValue:
    def test_zero_tau_constant_f(self):
        f = np.full((4, 4, 1), 0.5)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        tau = np.zeros((4, 4, 2, 1))
        assert dual_value(tau, f, mask, params_for(), 0.5) == 0.0

    def test_infeasible_tau_is_minus_infinity(self):
        f = np.full((2, 2, 1), 0.5)
        mask = np.zeros((2, 2), dtype=bool)
        tau = np.zeros((2, 2, 2, 1))
        tau[0, 0, 0, 0] = 1.0  # |tau| = cbar for mu = 2: outside the domain
        assert dual_value(tau, f, mask, params_for(mu=2.0), 0.5) == -math.inf
        # for mu = 3 the boundary |tau| = cbar = 0.5 is still feasible
        tau[0, 0, 0, 0] = 0.5
        assert dual_value(tau, f, mask, params_for(mu=3.0), 0.5) > -math.inf
        tau[0, 0, 0, 0] = 0.50001
        assert dual_value(tau, f, mask, params_for(mu=3.0), 0.5) == -math.inf

    def test_huge_infeasible_tau_is_minus_infinity_not_nan(self):
        # |div tau| ~ 2e300 against f = 1e10: d . f and the known infimum
        # overflow to inf - inf, which the conjugate's +inf must outrank.
        f = np.full((3, 3, 1), 1e10)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        tau = np.zeros((3, 3, 2, 1))
        tau[0, 0, 0, 0], tau[0, 1, 0, 0], tau[1, 0, 1, 0] = 1e300, -1e300, 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            assert dual_value(tau, f, mask, params_for(lam=10.0), 1e10) == -math.inf

    def test_bound_below_known_sup_rejected(self):
        f = np.full((2, 2, 1), 0.8)
        mask = np.zeros((2, 2), dtype=bool)
        tau = np.zeros((2, 2, 2, 1))
        with pytest.raises(ValueError):
            dual_value(tau, f, mask, params_for(), 0.5)

    @pytest.mark.parametrize("entry", ["certify", "dual_value"])
    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, entry, bound):
        # The damaged pixels would weigh |div tau| by the bound: NaN or -inf.
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        u = f.copy()
        u[mask] = 0.5
        tau, _ = dual_from_primal(u, params_for())
        with pytest.raises(ValueError, match="bound"):
            if entry == "certify":
                certify(u, f, mask, params_for(), bound)
            else:
                dual_value(tau, f, mask, params_for(), bound)

    def test_gray_field_against_color_f_rejected(self):
        # Broadcast against f's three channels, this one-channel field would
        # give R_hat = 1.06, above the energy 0.727 of u = f: no lower bound.
        f = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        mask = np.zeros((1, 2), dtype=bool)
        tau = np.zeros((1, 2, 2, 1))
        tau[0, 0, 0, 0] = 0.5
        assert primal_energy(f, f, mask, params_for()) == pytest.approx(0.727, abs=1e-3)
        with pytest.raises(ValueError, match="field shape"):
            dual_value(tau, f, mask, params_for(), math.sqrt(3.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, bad):
        f = np.full((2, 2, 1), 0.5)
        mask = np.zeros((2, 2), dtype=bool)
        tau = np.zeros((2, 2, 2, 1))
        tau[1, 0, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dual_value(tau, f, mask, params_for(), 0.5)

    def test_weak_duality_fuzz(self):
        rng = np.random.default_rng(42)
        for zeta in (1.5, 2.0, 3.0):
            params = params_for(zeta=zeta, lam=7.0)
            for _ in range(25):
                f, mask = random_instance(rng, shape=(6, 6), channels=2)
                bound = sup_known_norm(f, mask)
                u = clamp_to_ball(rng.uniform(-2.0, 2.0, size=f.shape), bound)
                tau, _ = dual_from_primal(u, params)
                dv = dual_value(tau, f, mask, params, bound)
                assert dv <= primal_energy(u, f, mask, params) + 1e-10


class TestCertify:
    def test_gap_zero_at_constant_match(self):
        f = np.full((5, 5, 1), 0.6)
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        cert = certify(f.copy(), f, mask, params_for(lam=10.0), 0.6)
        assert cert.relative_gap == 0.0
        assert cert.primal_value == 0.0
        assert cert.dual_value == 0.0

    def test_random_iterate_has_positive_gap(self):
        rng = np.random.default_rng(9)
        f, mask = random_instance(rng)
        bound = sup_known_norm(f, mask)
        u = clamp_to_ball(rng.uniform(-1.0, 1.0, size=f.shape), bound)
        cert = certify(u, f, mask, params_for(lam=5.0), bound)
        assert cert.dual_value < cert.primal_value
        assert cert.relative_gap == pytest.approx(
            (cert.primal_value - cert.dual_value) / max(1.0, abs(cert.primal_value))
        )
        assert cert.feasibility_margin > 0.0

    def test_divergence_residual_reported_on_damage(self):
        rng = np.random.default_rng(10)
        f, mask = random_instance(rng, damage=0.5)
        bound = sup_known_norm(f, mask)
        u = clamp_to_ball(rng.uniform(-1.0, 1.0, size=f.shape), bound)
        cert = certify(u, f, mask, params_for(), bound)
        assert cert.divergence_residual_on_D >= 0.0

    @pytest.mark.parametrize("mu", [2.0, 3.0])
    def test_data_in_0_255_certifies(self, mu):
        f = np.random.default_rng(1).uniform(0.0, 255.0, size=(64, 64, 1))
        mask = np.zeros((64, 64), dtype=bool)
        mask[24:40, 24:40] = True
        cert = certify(f, f, mask, params_for(mu=mu, lam=10.0), sup_known_norm(f, mask))
        assert math.isfinite(cert.relative_gap)
        assert cert.dual_value <= cert.primal_value

    @pytest.mark.parametrize("mu", [15.0, 40.0])
    @pytest.mark.parametrize("scale", [255.0, 1e6])
    def test_rounding_past_cbar_is_scaled_back_at_large_mu(self, mu, scale):
        # phi' of these gradients rounds to just above cbar on some pixels.
        # At mu > 2 phi*(cbar) is finite, so tau is scaled along its ray into
        # the ball and the certificate stays finite; the margin still reports
        # the unscaled field.
        f, mask = checkerboard_instance(n=8, block=(3, 5))
        f = scale * f
        u = f.copy()
        u[mask] = 0.5 * scale
        with pytest.warns(RuntimeWarning, match="feasibility margin"):
            cert = certify(u, f, mask, params_for(mu=mu, lam=10.0), sup_known_norm(f, mask))
        assert cert.feasibility_margin < 0.0
        assert math.isfinite(cert.relative_gap)
        assert cert.dual_value <= cert.primal_value
        assert cert.dual_field == "tau"
        assert 0.0 < cert.dual_scale <= 1.0

    def test_rounding_to_cbar_stays_infeasible_at_mu_2(self):
        # At mu <= 2 the conjugate is +inf already at |tau| = cbar, so no
        # scaling into the closed ball is done: the dual stays -inf.
        u = np.zeros((1, 2, 1))
        u[0, 1, 0] = 1e17  # phi'(1e17) rounds to cbar = 1
        mask = np.array([[False, True]])
        with pytest.warns(RuntimeWarning, match="feasibility margin"):
            cert = certify(u, np.zeros_like(u), mask, params_for(mu=2.0), 1.0)
        assert cert.dual_value == -math.inf
        assert cert.relative_gap == math.inf

    def test_infinite_primal_gives_infinite_gap(self):
        # Finite data whose energy sums past the float range: inf, not NaN.
        f = np.zeros((8, 16, 1))
        mask = np.zeros((8, 16), dtype=bool)
        cert = certify(np.full(f.shape, 1.7e153), f, mask, params_for(), 0.0)
        assert cert.primal_value == math.inf
        assert cert.relative_gap == math.inf

    @pytest.mark.parametrize("delta,limit", [(0.0, 3.2), (0.01, 4.1)])
    def test_peak_in_gradient_fields(self, delta, limit):
        # tau is written over the primal point's gradient and sigma is
        # dropped once split: ~2.7 gradient fields at delta = 0 and ~3.7 at
        # delta = 0.01; a buffer per flux would make them ~3.7 and ~4.6.
        u, f, mask = hole_instance_color128()
        bound = sup_known_norm(f, mask)
        params = params_for(delta=delta, lam=10.0)
        certify(u, f, mask, params, bound)  # warm-up
        peak = peak_allocation(lambda: certify(u, f, mask, params, bound))
        assert peak < limit * gradient(u).nbytes

    def test_viscous_iterate_uses_viscosity_free_primal(self):
        rng = np.random.default_rng(11)
        f, mask = random_instance(rng)
        bound = sup_known_norm(f, mask)
        u = clamp_to_ball(rng.uniform(-1.0, 1.0, size=f.shape), bound)
        with_visc = certify(u, f, mask, params_for(delta=0.5), bound)
        without = certify(u, f, mask, params_for(delta=0.0), bound)
        assert with_visc.primal_value == without.primal_value


def board_iterate(mu, zeta, deltas, inner_tol=None):
    """The 16x16 board solved level by level; yields (delta, u, params)."""
    f, mask = checkerboard_instance()
    params = params_for(mu=mu, lam=10.0, zeta=zeta)
    u = default_initial(f, mask)
    for delta in deltas:
        tol = inner_tol if inner_tol is not None else 1e-4 * delta
        u = minimize_smooth(u, delta, f, mask, params, SolverConfig(inner_tol=tol)).u
        yield delta, u, params


class TestViscousCertificate:
    """The dual candidate ``theta sigma`` built from ``sigma = DF_delta(grad u)``."""

    @pytest.mark.parametrize("mu,zeta", [(2.0, 2.0), (2.0, 1.5), (3.0, 3.0), (1.5, 2.0)])
    def test_sigma_gap_is_second_order_in_delta(self, mu, zeta):
        # Each level solved tightly: the tau gap carries the O(delta) charge
        # for div tau on the hole, the sigma gap only O(delta^2).
        f, mask = checkerboard_instance()
        bound = sup_known_norm(f, mask)
        gaps = []
        for delta, u, params in board_iterate(mu, zeta, (1e-2, 1e-3), inner_tol=1e-11):
            cert = certify(u, f, mask, params.with_delta(delta), bound)
            tau_only = certify(u, f, mask, params, bound)
            assert cert.dual_field == "sigma"
            assert cert.relative_gap <= tau_only.relative_gap
            gaps.append(cert.relative_gap)
        assert gaps[0] >= 50.0 * gaps[1]

    def test_provenance(self):
        f, mask = checkerboard_instance()
        bound = sup_known_norm(f, mask)
        (delta, u, params), = board_iterate(2.0, 2.0, (1e-2,))
        viscous = params.with_delta(delta)
        cert = certify(u, f, mask, viscous, bound)
        _, sigma = dual_from_primal(u, viscous)
        theta_max = recession_constant(params.density) / np.max(pixel_norms(sigma))
        assert cert.dual_field == "sigma"
        assert 0.0 < cert.dual_scale <= theta_max
        for cert in (
            certify(u, f, mask, params, bound),
            certify(u, f, np.zeros_like(mask), viscous, bound),
        ):
            assert cert.dual_field == "tau"
            assert cert.dual_scale == 1.0

    @pytest.mark.parametrize("mu,zeta", [(2.0, 2.0), (2.0, 1.5), (3.0, 3.0), (1.5, 2.0)])
    def test_same_bits_as_sigma_built_from_tau(self, mu, zeta):
        # The reference builds sigma the way certify did before its fluxes
        # came from density_gradient: tau plus delta grad u.
        f, mask = checkerboard_instance()
        bound = sup_known_norm(f, mask)
        *_, (delta, u, params) = board_iterate(mu, zeta, (1e-1, 1e-2))
        viscous = params.with_delta(delta)
        cert = certify(u, f, mask, viscous, bound)

        g = gradient(u)
        tau = density_gradient(params.density, g)
        tau_norms = pixel_norms(tau)
        sigma_norms = tau_norms + delta * pixel_norms(g)
        sigma_split = _split(-divergence(tau + delta * g), f, mask)
        tol = 1e-6 * max(1.0, abs(cert.primal_value))
        theta, value = _scaled_dual(sigma_norms, sigma_split, viscous, bound, tol)
        tau_value = _dual_value(tau_norms, _split(-divergence(tau), f, mask), viscous, bound)
        assert value > tau_value
        assert cert.dual_field == "sigma"
        assert cert.dual_value == value
        assert cert.dual_scale == theta

    @pytest.mark.parametrize(
        "mu,zeta", [(2.0, 2.0), (2.0, 1.5), (3.0, 3.0), (1.5, 2.0), (15.0, 2.0)]
    )
    def test_newton_theta_against_scan(self, mu, zeta):
        # At mu = 15 theta_max = cbar/max|sigma| < 1 and the optimum sits on
        # it; every other maximum is interior.
        f, mask = checkerboard_instance()
        bound = sup_known_norm(f, mask)
        *_, (delta, u, params) = board_iterate(mu, zeta, (1e-1, 1e-2))
        viscous = params.with_delta(delta)
        _, sigma = dual_from_primal(u, viscous)
        norms = pixel_norms(sigma)
        theta_max = recession_constant(params.density) / np.max(norms)
        scan = max(
            dual_value(theta * sigma, f, mask, viscous, bound)
            for theta in np.linspace(0.0, theta_max, 2001)
        )
        primal = primal_energy(u, f, mask, params)
        split = _split(-divergence(sigma), f, mask)
        theta, value = _scaled_dual(norms, split, viscous, bound, 1e-6 * primal)
        assert 0.0 < theta <= theta_max
        assert value >= scan - 1e-9 * abs(scan)
        if mu == 15.0:
            assert theta == pytest.approx(theta_max, rel=1e-12)

    def test_weak_duality_fuzz_at_positive_delta(self):
        # Random bounded fields rarely leave theta sigma a positive slope at
        # theta = 0; 20 solver steps from the default start mostly do.
        rng = np.random.default_rng(43)
        cfg = SolverConfig(inner_max_iters=20)
        fields = []
        for delta in (1e-3, 0.1, 1.0):
            for mu in (1.01, 1.2, 2.0, 3.0, 15.0):
                for zeta in (1.01, 1.5, 2.0, 3.0, 8.0):
                    params = params_for(mu=mu, delta=delta, zeta=zeta, lam=7.0)
                    for single_known in (False, True):
                        f, mask = random_instance(rng, shape=(6, 6), channels=2)
                        if single_known:
                            mask[:] = True
                            mask[rng.integers(6), rng.integers(6)] = False
                        bound = sup_known_norm(f, mask)
                        start = default_initial(f, mask)
                        for u in (
                            clamp_to_ball(rng.uniform(-2.0, 2.0, size=f.shape), bound),
                            minimize_smooth(start, delta, f, mask, params, cfg).u,
                        ):
                            cert = certify(u, f, mask, params, bound)
                            assert cert.dual_value <= cert.primal_value
                            fields.append(cert.dual_field)
        assert fields.count("sigma") >= 30

    @pytest.mark.parametrize("mu,zeta", [(2.0, 2.0), (3.0, 1.5), (15.0, 3.0)])
    def test_tau_path_without_damage_or_viscosity(self, mu, zeta):
        # Without a damaged pixel or at delta = 0 the certificate is the tau
        # one, field by field and bit for bit.
        rng = np.random.default_rng(44)
        for channels, all_known in ((1, True), (3, True), (2, False)):
            f, mask = random_instance(rng, shape=(7, 9), channels=channels)
            if all_known:
                mask[:] = False
            bound = sup_known_norm(f, mask)
            u = clamp_to_ball(f + rng.normal(0.0, 0.2, size=f.shape), bound)
            target = params_for(mu=mu, zeta=zeta, lam=5.0)
            deltas = (0.0, 0.01) if all_known else (0.0,)
            for delta in deltas:
                cert = certify(u, f, mask, target.with_delta(delta), bound)
                tau, _ = dual_from_primal(u, target)
                primal = primal_energy(u, f, mask, target)
                dual = dual_value(tau, f, mask, target, bound)
                div_tau = channel_norms(divergence(tau))[mask]
                assert cert.primal_value == primal
                assert cert.dual_value == dual
                assert cert.relative_gap == max(0.0, (primal - dual) / max(1.0, abs(primal)))
                assert cert.feasibility_margin == (
                    recession_constant(target.density) - np.max(pixel_norms(tau))
                )
                assert cert.divergence_residual_on_D == (
                    float(np.max(div_tau)) if mask.any() else 0.0
                )
                assert cert.dual_field == "tau"
                assert cert.dual_scale == 1.0
