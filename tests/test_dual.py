import math
import warnings

import numpy as np
import pytest

from conftest import (
    checkerboard_instance,
    hole_instance_color,
    peak_allocation,
    random_instance,
)
from viscotv import dual
from viscotv.density import DensityParams, phi_conjugate, recession_constant
from viscotv.dual import (
    _known_infimum,
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
        # sigma = (q + delta) grad u is rounded once, tau + delta grad u
        # three times: they agree within a few ulps of each entry.
        rng = np.random.default_rng(1)
        eps = np.finfo(float).eps
        for channels in (1, 3):
            u = rng.normal(size=(4, 5, channels))
            for mu in (1.5, 2.0, 3.0):
                tau, sigma = dual_from_primal(u, params_for(mu=mu, delta=0.25))
                expected = 0.25 * gradient(u) + tau
                assert (np.abs(sigma - expected) <= 4.0 * eps * np.abs(expected)).all()

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
    @pytest.mark.parametrize("bound", [math.nan, math.inf, True])
    def test_non_finite_bound_rejected(self, entry, bound):
        # The damaged pixels would weigh |div tau| by the bound: NaN or -inf.
        # True compares as 1, at least L = 1 here, but is no radius either.
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
        with pytest.warns(RuntimeWarning, match="feasibility margin") as record:
            cert = certify(u, f, mask, params_for(mu=mu, lam=10.0), sup_known_norm(f, mask))
        assert [w.filename for w in record] == [__file__]  # the caller's line, not numpy's
        assert cert.feasibility_margin < 0.0
        assert math.isfinite(cert.relative_gap)
        assert cert.dual_value <= cert.primal_value
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

    @pytest.mark.parametrize("delta,limit", [(0.0, 2.8), (0.01, 2.8)])
    def test_peak_in_gradient_fields(self, delta, limit):
        # tau is written over the primal point's gradient and the point's
        # u - f is dropped: ~2.5 gradient fields at either delta (certify
        # ignores it); a buffer of its own for tau would add one more, and
        # keeping u - f half of one.
        u, f, mask = hole_instance_color()
        bound = sup_known_norm(f, mask)
        params = params_for(delta=delta, lam=10.0)
        certify(u, f, mask, params, bound)  # warm-up
        peak = peak_allocation(lambda: certify(u, f, mask, params, bound))
        assert peak < limit * gradient(u).nbytes

    @pytest.mark.parametrize("delta,limit", [(0.0, 2.0), (0.01, 2.0)])
    def test_banded_peak_in_gradient_fields(self, delta, limit):
        # At 512x512x3 certify runs in 6 row bands, so no gradient-sized
        # array covers the grid: ~1.3 gradient fields at either delta, where
        # one band takes ~2.5.
        u, f, mask = hole_instance_color(n=512)
        bound = sup_known_norm(f, mask)
        params = params_for(delta=delta, lam=10.0)
        assert len(dual._row_bands(u.shape)) == 6
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


class TestViscousCertificate:
    """certify at parameters with delta > 0, and tau scaled to the ball's edge at mu > 2."""

    @pytest.mark.parametrize("mu", [15.0, 40.0])
    @pytest.mark.parametrize("scale", [255.0, 1e6])
    def test_edge_theta_against_scan(self, mu, scale):
        # Saturated gradients put some |tau| a few ulps past cbar.  theta is
        # cbar/max|tau|, or 0 where that edge bound is not positive; where
        # the gap is small enough to matter, no theta of a fine scan beats it.
        rng = np.random.default_rng(60)
        board, f, mask, params, bound = rounding_edge_case(mu, scale)
        near_optimal = 0
        for u in [board] + [
            clamp_to_ball(rng.uniform(-scale, 2.0 * scale, size=f.shape), bound) for _ in range(3)
        ]:
            with pytest.warns(RuntimeWarning, match="feasibility margin"):
                cert = certify(u, f, mask, params, bound)
            assert cert.feasibility_margin < 0.0
            tau, _ = dual_from_primal(u, params)
            theta_max = recession_constant(params.density) / np.max(pixel_norms(tau))
            assert cert.dual_scale in (theta_max, 0.0)
            assert cert.dual_value >= 0.0
            assert cert.dual_value <= cert.primal_value
            if cert.relative_gap < 0.5:
                near_optimal += 1
                scan = max(
                    dual_value(theta * tau, f, mask, params, bound)
                    for theta in np.linspace(0.0, theta_max, 2001)
                )
                assert cert.dual_value >= scan - 1e-9 * abs(scan)
        assert near_optimal >= 1

    def test_weak_duality_fuzz_at_positive_delta(self):
        # Random bounded fields and 20 solver steps at delta from the
        # default start, certified with the viscous parameters.
        rng = np.random.default_rng(43)
        cfg = SolverConfig(inner_max_iters=20)
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

    @pytest.mark.parametrize("mu,zeta", [(2.0, 2.0), (3.0, 1.5), (15.0, 3.0)])
    def test_tau_path_without_damage_or_viscosity(self, mu, zeta):
        # The certificate is the tau one, field by field and bit for bit, and
        # the delta of the parameters moves no bit of it, damaged pixels or not.
        rng = np.random.default_rng(44)
        for channels, all_known in ((1, True), (3, True), (2, False), (1, False)):
            f, mask = random_instance(rng, shape=(7, 9), channels=channels)
            if all_known:
                mask[:] = False
            assert mask.any() != all_known
            bound = sup_known_norm(f, mask)
            u = clamp_to_ball(f + rng.normal(0.0, 0.2, size=f.shape), bound)
            target = params_for(mu=mu, zeta=zeta, lam=5.0)
            cert = certify(u, f, mask, target, bound)
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
            assert cert.dual_scale == 1.0
            for delta in (0.01, 0.1):
                viscous = certify(u, f, mask, target.with_delta(delta), bound)
                assert repr(viscous) == repr(cert)


def hole_case(delta):
    u, f, mask = hole_instance_color()
    return u, f, mask, params_for(delta=delta, lam=10.0), sup_known_norm(f, mask)


def rounding_edge_case(mu=15.0, scale=255.0):
    """At mu > 2 some |tau| rounds past cbar and tau is scaled back."""
    f, mask = checkerboard_instance(n=8, block=(3, 5))
    f = scale * f
    u = f.copy()
    u[mask] = 0.5 * scale
    return u, f, mask, params_for(mu=mu, lam=10.0), sup_known_norm(f, mask)


def overflow_case():
    """A gradient entry overflows on an inner row: tau is nan there, so is the margin."""
    u = np.zeros((5, 4, 1))
    u[2, 1, 0], u[2, 2, 0] = 1e308, -1e308
    return u, np.zeros_like(u), np.zeros((5, 4), dtype=bool), params_for(), 0.0


def random_case(shape, channels, seed):
    f, mask = random_instance(np.random.default_rng(seed), shape=shape, channels=channels)
    u = f + np.random.default_rng(seed + 1).normal(0.0, 0.1, size=f.shape)
    return u, f, mask, params_for(mu=3.0, delta=0.01, lam=5.0), sup_known_norm(f, mask)


BAND_CASES = {
    "hole128 delta=0": lambda: hole_case(0.0),
    "hole128 delta=0.01": lambda: hole_case(0.01),
    "rounding edge": rounding_edge_case,
    "overflow": overflow_case,
    "1xN": lambda: random_case((1, 23), 3, 50),
    "Nx1": lambda: random_case((23, 1), 1, 52),
    "odd height": lambda: random_case((13, 6), 3, 54),
}


def quiet_certify(*args, **kwargs):
    """certify with its RuntimeWarnings ignored: two of the cases warn on purpose."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return certify(*args, **kwargs)


class TestRowBands:
    """certify evaluates its per-pixel passes in row bands (``dual._BAND``)."""

    @pytest.mark.parametrize("rows", [0, 2, 3], ids=["band=1", "2 rows", "3 rows"])
    @pytest.mark.parametrize("case", list(BAND_CASES))
    def test_bands_keep_every_bit(self, monkeypatch, case, rows):
        # repr tells every float apart, nan and -0.0 included.
        u, f, mask, params, bound = BAND_CASES[case]()
        h, w, m = u.shape
        assert len(dual._row_bands(u.shape)) == 1
        whole = quiet_certify(u, f, mask, params, bound)
        monkeypatch.setattr(dual, "_BAND", max(rows * w * m, 1))
        bands = dual._row_bands(u.shape)
        assert max(r1 - r0 for r0, r1 in bands) == min(max(rows, 1), h)
        assert repr(quiet_certify(u, f, mask, params, bound)) == repr(whole)

    def test_cases_reach_their_paths(self):
        assert quiet_certify(*rounding_edge_case()).dual_scale < 1.0
        assert math.isnan(quiet_certify(*overflow_case()).feasibility_margin)

    def test_band_rule(self, monkeypatch):
        # n = ceil(h w M / _BAND) bands of ceil(h / n) rows, the last one short.
        assert dual._row_bands((512, 512, 3)) == [(r, min(r + 86, 512)) for r in range(0, 512, 86)]
        for shape in ((48, 48, 1), (96, 96, 3), (128, 128, 3), (1, 10**6, 3)):
            assert dual._row_bands(shape) == [(0, shape[0])]
        monkeypatch.setattr(dual, "_BAND", 10)
        assert dual._row_bands((7, 2, 1)) == [(0, 4), (4, 7)]
