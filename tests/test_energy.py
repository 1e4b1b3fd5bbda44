import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hole_instance_color, layouts, peak_allocation, planar_empty, random_instance
from conftest import same_bits
from oracle import fd_gradient, phi_by_quadrature
from viscotv.density import DensityParams, density_gradient, density_value
from viscotv.dual import certify, dual_from_primal, dual_value, sup_known_norm
from viscotv.energy import (
    ModelParams,
    _energy_total,
    _fidelity_field,
    _fidelity_prox,
    _newton_shrink,
    _Plan,
    _total,
    euler_residual,
    fidelity,
    primal_energy,
)
from viscotv.grid import _planar, _plane_rows, _unstitched, channel_norms, divergence, gradient
from viscotv.solver import (
    SolverConfig,
    check_max_principle,
    continuation,
    default_initial,
    minimize_smooth,
)


def single_pixel(u_val, f_val):
    u = np.array([[[u_val], [0.0]]])
    f = np.array([[[f_val], [0.0]]])
    mask = np.array([[False, True]])
    return u, f, mask


class TestModelParams:
    def test_rejects_zeta_at_or_below_one(self):
        for bad in (1.0, 0.5, 0.0):
            with pytest.raises(ValueError):
                ModelParams(lam=1.0, zeta=bad, density=DensityParams(2.0))

    def test_rejects_nonpositive_lambda(self):
        for bad in (0.0, True):
            with pytest.raises(ValueError, match="lam"):
                ModelParams(lam=bad, zeta=2.0, density=DensityParams(2.0))

    def test_stores_floats(self):
        params = ModelParams(lam=10, zeta=np.int64(2), density=DensityParams(2))
        assert [type(x) for x in (params.lam, params.zeta, params.density.mu)] == [float] * 3

    def test_without_viscosity(self):
        # Parameters already at delta = 0 are returned as they are, as
        # DensityParams.without_viscosity returns its own.
        params = ModelParams(lam=10.0, zeta=1.5, density=DensityParams(3.0))
        assert params.without_viscosity() is params
        assert params.with_delta(0.01).without_viscosity() == params


class TestFidelity:
    def test_zero_when_matching_on_known(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(size=(4, 4, 2))
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        u = f.copy()
        u[1, 1] = 99.0  # damaged pixel: f there is ignored
        params = ModelParams(lam=3.0, zeta=2.0, density=DensityParams(2.0))
        assert fidelity(u, f, mask, params) == 0.0

    def test_single_pixel_quadratic(self):
        u, f, mask = single_pixel(0.5, 0.0)
        params = ModelParams(lam=2.0, zeta=2.0, density=DensityParams(2.0))
        assert fidelity(u, f, mask, params) == pytest.approx(0.25, abs=1e-15)

    def test_single_pixel_cubic(self):
        u, f, mask = single_pixel(0.5, 0.0)
        params = ModelParams(lam=1.0, zeta=3.0, density=DensityParams(2.0))
        assert fidelity(u, f, mask, params) == pytest.approx(0.125 / 3.0, abs=1e-9)

    def test_shape_mismatch(self):
        params = ModelParams(lam=1.0, zeta=2.0, density=DensityParams(2.0))
        with pytest.raises(ValueError, match="u shape"):  # mask on f's grid
            fidelity(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), np.zeros((2, 3), bool), params)
        with pytest.raises(ValueError):
            fidelity(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.zeros((3, 2), bool), params)

    @given(st.floats(0.01, 100.0))
    def test_scales_linearly_in_lambda(self, lam):
        rng = np.random.default_rng(5)
        f, mask = random_instance(rng)
        u = rng.uniform(size=f.shape)
        base = ModelParams(lam=1.0, zeta=1.7, density=DensityParams(2.0))
        scaled = ModelParams(lam=lam, zeta=1.7, density=DensityParams(2.0))
        assert fidelity(u, f, mask, scaled) == pytest.approx(
            lam * fidelity(u, f, mask, base), rel=1e-12
        )


VISCOUS = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(2.0, 0.1))

# The public (u, f, mask) entry points; sup_known_norm reads only f and mask,
# dual_value the dual field of u.
ENTRY_POINTS = {
    "fidelity": lambda u, f, mask: fidelity(u, f, mask, VISCOUS),
    "primal_energy": lambda u, f, mask: primal_energy(u, f, mask, VISCOUS),
    "euler_residual": lambda u, f, mask: euler_residual(u, f, mask, VISCOUS),
    "certify": lambda u, f, mask: certify(u, f, mask, VISCOUS, 2.0),
    "minimize_smooth": lambda u, f, mask: minimize_smooth(
        u, 0.1, f, mask, VISCOUS, SolverConfig()
    ),
    "sup_known_norm": lambda u, f, mask: sup_known_norm(f, mask),
    "dual_value": lambda u, f, mask: dual_value(
        dual_from_primal(u, VISCOUS)[0], f, mask, VISCOUS, 2.0
    ),
    "check_max_principle": check_max_principle,
}


def _int_mask(u, f, mask):
    return u, f, mask.astype(np.int64)


def _nan_in_u(u, f, mask):
    u[2, 3, 0] = np.nan
    return u, f, mask


def _inf_in_known_f(u, f, mask):
    f[0, 0, 1] = np.inf
    return u, f, mask


def _mask_on_another_grid(u, f, mask):
    return u, f, mask[:, :-1]


def _zero_channels(u, f, mask):
    return u[:, :, :0], f[:, :, :0], mask


def _zero_rows(u, f, mask):
    return u[:0], f[:0], mask[:0]


# Each defect with the wording its error must carry.
DEFECTS = {
    "int mask": (_int_mask, "bool"),
    "nan in u": (_nan_in_u, "non-finite"),
    "inf in known f": (_inf_in_known_f, "non-finite"),
    "mask on another grid": (_mask_on_another_grid, "grid"),
    "zero channels": (_zero_channels, "shape"),
    "zero rows": (_zero_rows, "shape"),
}


class TestMalformedArrays:
    # default_initial reads f and mask only, as sup_known_norm does.
    CHECKED = {
        **ENTRY_POINTS,
        "default_initial": lambda u, f, mask: default_initial(f, mask),
        "continuation": lambda u, f, mask: continuation(f, mask, VISCOUS, SolverConfig(), u0=u),
    }

    @pytest.mark.parametrize(
        "entry,defect",
        [
            (entry, defect)
            for entry in CHECKED
            for defect in DEFECTS
            if not (entry in ("sup_known_norm", "default_initial") and defect == "nan in u")
        ],
    )
    def test_rejected(self, entry, defect):
        rng = np.random.default_rng(3)
        f, mask = random_instance(rng, shape=(6, 6), channels=3)
        mask[0, 0] = False  # the pixel _inf_in_known_f corrupts
        u = np.clip(f + rng.normal(0.0, 0.05, f.shape), 0.0, 1.0)
        self.CHECKED[entry](u, f, mask)  # the well-formed instance is accepted
        transform, match = DEFECTS[defect]
        with pytest.raises(ValueError, match=match):
            self.CHECKED[entry](*transform(u, f, mask))


class TestAllDamagedMask:
    """The energies are defined when no pixel is known; L and the hole fill are not."""

    NEEDS_KNOWN = {
        "sup_known_norm": ENTRY_POINTS["sup_known_norm"],
        "certify": ENTRY_POINTS["certify"],
        "dual_value": ENTRY_POINTS["dual_value"],
        "check_max_principle": ENTRY_POINTS["check_max_principle"],
        "minimize_smooth": ENTRY_POINTS["minimize_smooth"],
        "default_initial": lambda u, f, mask: default_initial(f, mask),
        "continuation": lambda u, f, mask: continuation(f, mask, VISCOUS, SolverConfig(), u0=u),
    }

    @staticmethod
    def instance():
        f = np.random.default_rng(4).uniform(size=(3, 4, 2))
        return f + 0.1, f, np.ones((3, 4), bool)

    @pytest.mark.parametrize("entry", NEEDS_KNOWN)
    def test_rejected(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" on the way
            with pytest.raises(ValueError, match="damages the entire domain"):
                self.NEEDS_KNOWN[entry](*self.instance())

    @pytest.mark.parametrize("entry", ["fidelity", "primal_energy", "euler_residual"])
    def test_energies_still_defined(self, entry):
        # No pixel is known, so f is never read: the value is the density term alone.
        u, f, mask = self.instance()
        value = np.asarray(ENTRY_POINTS[entry](u, f, mask))
        assert np.all(np.isfinite(value))
        assert np.array_equal(value, ENTRY_POINTS[entry](u, f + 1.0, mask))
        if entry == "fidelity":
            assert value == 0.0


class TestDamagedValuesOfF:
    """f on damaged pixels is never read, at any zeta: a huge value there moves no bit."""

    @staticmethod
    def outputs(hole, zeta):
        f = np.random.default_rng(1).uniform(size=(8, 8, 1))
        mask = np.zeros((8, 8), bool)
        mask[3:5, 3:5] = True
        f[mask] = hole
        params = ModelParams(lam=10.0, zeta=zeta, density=DensityParams(2.0))
        u, cert, records = continuation(f, mask, params, SolverConfig())
        inner = minimize_smooth(u, 0.01, f, mask, params, SolverConfig())
        return (
            u.tobytes(),
            cert,
            [replace(r, wall_seconds=0.0) for r in records],
            inner.u.tobytes(),
            inner.stop_reason,
            certify(u, f, mask, params, 1.0),
            np.abs(euler_residual(u, f, mask, params)).tobytes(),  # zeros of either sign
        )

    @pytest.mark.parametrize("zeta", [1.5, 3.0])
    def test_huge_hole_changes_nothing(self, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.outputs(1e155, zeta) == self.outputs(0.5, zeta)


class TestOverflowingSupNorm:
    """L, the largest known-pixel norm of f, must be finite where it is read.

    A known value of 1e160 squares past the float range, so L would be inf;
    at 1e150 every entry point still returns.
    """

    READS_L = {
        "sup_known_norm": lambda f, mask, bound: sup_known_norm(f, mask),
        "dual_value": lambda f, mask, bound: dual_value(
            np.zeros((4, 4, 2, 1)), f, mask, VISCOUS, bound
        ),
        "certify": lambda f, mask, bound: certify(f, f, mask, VISCOUS, bound),
        "check_max_principle": lambda f, mask, bound: check_max_principle(f, f, mask),
        "minimize_smooth": lambda f, mask, bound: minimize_smooth(
            f, 0.1, f, mask, VISCOUS, SolverConfig()
        ),
        "continuation": lambda f, mask, bound: continuation(
            f, mask, VISCOUS, SolverConfig()
        ),
    }

    @staticmethod
    def instance(peak):
        f = np.random.default_rng(5).uniform(size=(4, 4, 1))
        f[0, 0, 0] = peak
        mask = np.zeros((4, 4), bool)
        mask[2, 2] = True
        return f, mask

    @pytest.mark.parametrize("entry", READS_L)
    def test_rejected(self, entry):
        f, mask = self.instance(1e160)
        with pytest.raises(ValueError, match="known-pixel norm L of f overflows"):
            self.READS_L[entry](f, mask, 1e161)

    @pytest.mark.parametrize("entry", READS_L)
    def test_large_finite_accepted(self, entry):
        f, mask = self.instance(1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way
            self.READS_L[entry](f, mask, sup_known_norm(f, mask))


def hypot_norms(x):
    """Per-pixel channel norms by ``math.hypot``, which neither underflows nor overflows."""
    return np.array([[math.hypot(*pixel) for pixel in row] for row in x])


PROX_DISTANCES = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 1e3, 1e6])


class TestFidelityProx:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("zeta", [1.1, 1.5, 2.0, 2.5, 3.0, 6.0])
    def test_optimality_residual_vanishes(self, zeta, channels):
        # f = 0 on known pixels keeps v - f exact, so the residual measures the
        # scalar root alone; damaged pixels carry arbitrary f, which is ignored.
        rng = np.random.default_rng(61)
        n = PROX_DISTANCES.size
        direction = rng.normal(size=(2, n, channels))
        direction /= hypot_norms(direction)[..., None]
        w = PROX_DISTANCES[None, :, None] * direction
        mask = np.zeros((2, n), dtype=bool)
        mask[1, ::2] = True
        f = np.where(mask[..., None], rng.normal(size=w.shape), 0.0)
        params = ModelParams(lam=1.0, zeta=zeta, density=DensityParams(2.0))
        out = planar_empty(w.shape)
        for c in np.logspace(-8, 4, 13):
            v = _fidelity_prox(w, f, mask, params, c, out=np.empty_like(w))
            out.fill(np.nan)
            assert _fidelity_prox(w, f, mask, params, c, out=out) is out
            assert same_bits(out, v)
            assert np.array_equal(v[mask], w[mask])
            assert (v[0, 0] == 0.0).all()  # known, a = 0
            r = hypot_norms(v)
            with np.errstate(divide="ignore"):
                scale = np.where(r > 0.0, r ** (zeta - 2.0), 0.0)
            residual = hypot_norms((v - w) + c * scale[..., None] * v)
            known = ~mask
            bound = 32.0 * np.finfo(float).eps * hypot_norms(w)
            assert (residual[known] <= bound[known]).all()

    @staticmethod
    def applied_shrink(a, c, zeta):
        """The factor by which ``_fidelity_prox`` shrinks deviations of norms a (f = 0)."""
        w = a[None, :, None]
        params = ModelParams(lam=1.0, zeta=zeta, density=DensityParams(2.0))
        mask = np.zeros((1, a.size), bool)
        v = _fidelity_prox(w, np.zeros_like(w), mask, params, c, out=np.empty_like(w))
        return v[0, :, 0] / a

    @pytest.mark.parametrize("zeta", [1.5, 2.0])
    def test_closed_forms_match_newton(self, zeta):
        a = np.logspace(-12, 6, 200)
        for c in np.logspace(-8, 4, 25):
            closed = self.applied_shrink(a, c, zeta)  # each zeta's closed form
            newton = _newton_shrink(a, c, zeta)
            assert np.max(np.abs(closed - newton) / closed) <= 16.0 * np.finfo(float).eps


class TestPrimalEnergy:
    def params(self, **kw):
        defaults = dict(lam=1.0, zeta=2.0, density=DensityParams(2.0))
        defaults.update(kw)
        return ModelParams(**defaults)

    def test_zero_at_constant_match(self):
        u = np.full((3, 3, 1), 0.4)
        mask = np.zeros((3, 3), dtype=bool)
        assert primal_energy(u, u.copy(), mask, self.params()) == 0.0

    def test_bridge_pixel_pair(self):
        u = np.array([[[0.0], [1.0]]])
        f = np.zeros((1, 2, 1))
        mask = np.array([[False, True]])
        val = primal_energy(u, f, mask, self.params())
        assert val == pytest.approx(1.0 - math.log(2.0), abs=1e-14)

    def test_bridge_with_offset(self):
        u = np.array([[[0.1], [1.0]]])
        f = np.zeros((1, 2, 1))
        mask = np.array([[False, True]])
        val = primal_energy(u, f, mask, self.params())
        assert val == pytest.approx(phi_by_quadrature(2.0, 0.9) + 0.005, abs=1e-10)

    def test_nondecreasing_in_delta(self):
        rng = np.random.default_rng(1)
        f, mask = random_instance(rng)
        u = rng.uniform(size=f.shape)
        vals = [
            primal_energy(u, f, mask, self.params(density=DensityParams(2.0, d)))
            for d in (0.0, 1e-3, 0.1, 1.0)
        ]
        assert vals == sorted(vals)

    def test_energy_at_zero_field(self):
        rng = np.random.default_rng(2)
        f, mask = random_instance(rng, shape=(5, 5), channels=2)
        params = self.params(lam=3.0, zeta=2.5)
        expected = (3.0 / 2.5) * float(
            np.sum(np.linalg.norm(f, axis=-1)[~mask] ** 2.5)
        )
        got = primal_energy(np.zeros_like(f), f, mask, params)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(3)
        f, mask = random_instance(rng)
        params = self.params(zeta=1.5, density=DensityParams(2.5, 0.01))
        for _ in range(20):
            u = rng.normal(size=f.shape)
            v = rng.normal(size=f.shape)
            mid = primal_energy(0.5 * (u + v), f, mask, params)
            avg = 0.5 * (
                primal_energy(u, f, mask, params) + primal_energy(v, f, mask, params)
            )
            assert mid <= avg + 1e-10


class TestEulerResidual:
    def test_zero_at_global_constant(self):
        u = np.full((4, 4, 2), 0.3)
        mask = np.zeros((4, 4), dtype=bool)
        params = ModelParams(lam=2.0, zeta=2.0, density=DensityParams(2.0, 0.1))
        assert (euler_residual(u, u.copy(), mask, params) == 0.0).all()

    @pytest.mark.parametrize(
        "mu,delta,zeta",
        [(2.0, 0.1, 2.0), (1.5, 0.0, 3.0), (3.0, 1e-3, 1.5)],
    )
    def test_matches_finite_differences(self, mu, delta, zeta):
        rng = np.random.default_rng(17)
        f, mask = random_instance(rng, shape=(6, 6))
        u = rng.uniform(size=f.shape)
        params = ModelParams(lam=1.0, zeta=zeta, density=DensityParams(mu, delta))
        res = euler_residual(u, f, mask, params)
        step = 1e-6 * (1.0 + float(np.max(np.abs(u))))
        fd = fd_gradient(u, f, mask, params, step)
        denom = np.max(np.abs(fd))
        assert np.max(np.abs(res - fd)) / denom <= 1e-6

    def test_small_zeta_fidelity_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        f, mask = random_instance(rng, shape=(5, 5))
        u = rng.uniform(size=f.shape)
        params = ModelParams(lam=2.0, zeta=1.2, density=DensityParams(2.0, 0.01))
        res = euler_residual(u, f, mask, params)
        fd = fd_gradient(u, f, mask, params, 1e-6)
        assert np.max(np.abs(res - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_coincidence_convention_for_small_zeta(self):
        # u = f at a known pixel: the fidelity gradient factor is 0 there.
        u, f, mask = single_pixel(0.5, 0.5)
        params = ModelParams(lam=1.0, zeta=1.5, density=DensityParams(2.0))
        res = euler_residual(u, f, mask, params)
        assert np.isfinite(res).all()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_zeta2_skips_the_unit_scale_bit_for_bit(self, channels):
        # At zeta = 2 the factor |u - f|^(zeta - 2) is 1 (0 where u = f) and
        # is not computed; the residual must not change by a bit.
        rng = np.random.default_rng(29)
        f, mask = random_instance(rng, shape=(7, 6), channels=channels)
        u = rng.normal(size=f.shape)
        u[0, 0] = f[0, 0]
        mask[0, 0] = False
        params = ModelParams(lam=3.0, zeta=2.0, density=DensityParams(2.0, 0.05))
        norms = channel_norms(u - f)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > 0.0, norms ** (params.zeta - 2.0), 0.0)
        general = -divergence(density_gradient(params.density, gradient(u))) + (
            params.lam * (~mask)[..., None] * scale[..., None] * (u - f)
        )
        assert euler_residual(u, f, mask, params).tobytes() == general.tobytes()


class TestCompensatedSum:
    """``energy._total``, the one summation rule: a pairwise ``np.add.reduce``.

    Its error is at most about ``ceil(log2 n) * eps * sum|x|``, well inside
    the 16 eps checked here against the exact sum of ``math.fsum``.
    """

    @staticmethod
    def assert_near_fsum(x):
        x = np.asarray(x, dtype=float)
        exact = math.fsum(x.tolist())
        scale = math.fsum(np.abs(x).tolist())
        assert abs(_total(x) - exact) <= 16.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 2304])
    def test_close_to_fsum(self, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)
        self.assert_near_fsum(x)

    @pytest.mark.parametrize("size", [63, 64, 65, 2304])
    def test_mixed_magnitudes(self, size):
        x = np.ones(size)
        x[::7] = 1e16
        x[3::7] = -1e16
        self.assert_near_fsum(x)
        self.assert_near_fsum(x[::-1])

    def test_same_bits_for_any_layout_of_the_same_values(self):
        # Summed in memory order, the Fortran copy gives other bits on most
        # of these seeds.
        for seed in range(3, 7):
            x = np.random.default_rng(seed).normal(size=(48, 48))
            assert _total(x) == _total(np.asfortranarray(x)) == _total(x.ravel())

    # A partial sum overflows to inf in numpy, which warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("size", [3, 128, 200])
    def test_total_beyond_float_range_is_inf_of_its_sign(self, size):
        x = np.full(size, 1e308)
        x[1] = -1.0
        assert _total(x) == math.inf
        assert _total(-x) == -math.inf

    def test_primal_energy_of_huge_finite_field_is_inf(self):
        # Each pixel's fidelity 0.5 * (1.7e153)^2 = 1.4e306 is finite; the
        # 128 of them sum past the float range.
        f = np.zeros((8, 16, 1))
        mask = np.zeros((8, 16), dtype=bool)
        params = ModelParams(lam=1.0, zeta=2.0, density=DensityParams(2.0))
        assert primal_energy(np.full(f.shape, 1.7e153), f, mask, params) == math.inf

    @pytest.mark.parametrize(
        "entry", ["primal_energy", "fidelity", "certify", "minimize_smooth", "dual_value"]
    )
    def test_entry_points_return_inf_without_warning(self, entry):
        # Each pixel's 0.5 * (2.5e153)^2 is finite; their sum is not, and
        # numpy's overflow warning must not reach the caller.
        u = np.full((8, 16, 1), 2.5e153)
        f = np.zeros_like(u)
        mask = np.zeros((8, 16), dtype=bool)
        params = ModelParams(lam=1.0, zeta=2.0, density=DensityParams(2.0))
        if entry == "dual_value":
            # 127 damaged pixels each weigh |div tau| <= 0.26 by the finite
            # bound 1e308: finite terms, but not their sum.
            mask[:] = True
            mask[0, 0] = False
            tau, _ = dual_from_primal(np.random.default_rng(3).normal(size=u.shape), params)
            value = -dual_value(0.1 * tau, f, mask, params, 1e308)
        elif entry == "certify":
            value = certify(u, f, mask, params, 0.0).relative_gap
        elif entry == "minimize_smooth":
            cfg = SolverConfig(inner_max_iters=1)
            value = minimize_smooth(u, 0.1, f, mask, params, cfg).energy_history[0]
        else:
            value = {"primal_energy": primal_energy, "fidelity": fidelity}[entry](
                u, f, mask, params
            )
        assert value == math.inf


class TestOverflowingGradientNorm:
    """A finite u whose gradient norm overflows has energy +inf, not nan.

    The norm is inf there, so ``phi(inf)`` evaluates ``inf - inf``.
    """

    @staticmethod
    def spike():
        u = np.zeros((2, 2, 1))
        u[0, 0, 0] = 1e155
        return u, np.zeros_like(u), np.zeros((2, 2), dtype=bool)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    def test_primal_energy_is_inf(self, mu):
        params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(mu))
        with np.errstate(over="ignore", invalid="ignore"):
            assert primal_energy(*self.spike(), params) == math.inf

    @staticmethod
    def neighbours():
        # Here a gradient entry itself overflows (-2e308 is -inf), and the
        # flux there is phi'(inf)/inf * inf = 0 * inf = nan.
        u = np.zeros((2, 2, 1))
        u[0, 0, 0], u[0, 1, 0] = 1e308, -1e308
        return u, np.zeros_like(u), np.zeros((2, 2), dtype=bool)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    def test_certify_gap_is_inf(self, mu):
        params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(mu))
        for u, f, mask in (self.spike(), self.neighbours()):
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cert = certify(u, f, mask, params, 0.0)
            assert cert.primal_value == math.inf
            assert cert.relative_gap == math.inf

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
    def test_overflowing_norms_warn_nothing(self, mu):
        # Every pixel's gradient norm overflows to inf.  Under the suite's
        # error::RuntimeWarning, phi's inf - inf (mu <= 2) and the solver's
        # difference of two inf energies must not warn.
        u = np.where(np.indices((4, 4)).sum(axis=0)[..., None] % 2 == 0, 1e200, -1e200)
        f, mask = np.zeros_like(u), np.zeros((4, 4), dtype=bool)
        params = ModelParams(lam=1.0, zeta=2.0, density=DensityParams(mu))
        assert primal_energy(u, f, mask, params) == math.inf
        # The flux q*grad u is 0 where q = phi'(inf)/inf = 0: lam (u - f) is left.
        assert same_bits(euler_residual(u, f, mask, params), u)
        cert = certify(u, f, mask, params, 0.0)
        assert (cert.primal_value, cert.dual_value, cert.relative_gap) == (math.inf, 0.0, math.inf)
        res = minimize_smooth(u, 1e-2, f, mask, params, SolverConfig(inner_max_iters=3))
        assert (res.iterations, res.stop_reason, res.energy_history) == (1, "stagnated", [math.inf])
        assert same_bits(res.u, u)

    def test_continuation_reports_inf(self):
        # L = 1e154 is finite, but the gradient at the known spike is not.
        f = np.zeros((4, 4, 1))
        f[0, 0, 0] = 1e154
        mask = np.zeros((4, 4), dtype=bool)
        mask[3, 3] = True
        params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(2.0))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, cert, _ = continuation(f, mask, params, SolverConfig())
        assert cert.primal_value == math.inf
        assert cert.relative_gap == math.inf


class TestResidualBuffers:
    def test_peak_below_two_gradient_fields(self):
        # The flux is written over the plan's gradient and the residual over
        # its u - f: the residual's own arrays are the density residual's
        # rows, ~0.5 gradient fields; a flux in a buffer of its own would add
        # one.  At mu = 3 the per-pixel temporaries of the radial quotient
        # would add ~0.7 more.
        u, f, mask = hole_instance_color()
        params = ModelParams(lam=10.0, zeta=2.0, density=DensityParams(2.0, 0.01))
        plan = _Plan(f, mask, params)
        rows = _plane_rows(u, (2, 0, 1))
        plan.evaluate(rows, plan.energy)
        plan.residual(np.empty(rows.shape))  # warm-up
        plan.evaluate(rows, plan.energy)
        field = gradient(u).nbytes
        assert peak_allocation(lambda: plan.residual(np.empty(rows.shape))) < 0.8 * field


class TestPlanViews:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 3), (6, 1, 2), (5, 4, 3)])
    def test_public_views_alias_their_rows(self, shape):
        # The plan allocates stitched rows; ``dev``, euler_residual's return
        # value, is a view of them: a write through the rows shows in it.
        h, w, _ = shape
        f = np.random.default_rng(3).uniform(size=shape)
        mask = np.zeros((h, w), dtype=bool)
        plan = _Plan(f, mask, ModelParams(lam=1.0, zeta=2.0, density=DensityParams(2.0)))
        rows = plan.dev_rows
        assert np.shares_memory(plan.dev, rows)
        rows[...] = np.arange(rows.size, dtype=float).reshape(rows.shape)
        expected = rows.copy().reshape(rows.shape[:-1] + (h, w)).transpose(1, 2, 0)
        assert same_bits(plan.dev, expected)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_binds_f_as_rows(self, channels):
        # f's contiguous stitched rows are a view of a planar f (a row-major
        # one at M = 1) and one copy of any other layout; the rows hold f's
        # planes either way.
        f = np.random.default_rng(5).uniform(size=(4, 6, channels))
        mask = np.zeros((4, 6), dtype=bool)
        params = ModelParams(lam=1.0, zeta=2.0, density=DensityParams(2.0))
        for given, view in ((_planar(f), True), (f, channels == 1), (np.asfortranarray(f), False)):
            rows = _Plan(given, mask, params).f_rows
            assert rows.flags.c_contiguous and np.shares_memory(rows, given) == view
            assert same_bits(_unstitched(rows, 4, 6), f)


class TestLayoutIndependence:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_primal_energy_and_certify_bits(self, channels):
        # u and f share each layout, so u - f has it too; tau takes each
        # layout with f C-ordered.  ``fidelity`` sums a field in the layout
        # of u - f, which ``energy._total`` reads in row-major order.
        rng = np.random.default_rng(31)
        f, mask = random_instance(rng, shape=(12, 9), channels=channels)
        u = rng.normal(size=f.shape)
        params = ModelParams(lam=3.0, zeta=1.5, density=DensityParams(2.5, 0.01))
        bound = sup_known_norm(f, mask)
        tau, _ = dual_from_primal(u, params)
        duals = {dual_value(t, f, mask, params, bound).hex() for t in layouts(tau)}
        assert len(duals) == 1
        energies = set()
        fidelities = set()
        certificates = set()
        for v, g in zip(layouts(u), layouts(f)):
            energies.add(primal_energy(v, g, mask, params).hex())
            fidelities.add(fidelity(v, g, mask, params).hex())
            cert = certify(v, g, mask, params, bound)
            certificates.add(
                (
                    cert.primal_value.hex(),
                    cert.dual_value.hex(),
                    cert.relative_gap.hex(),
                    cert.feasibility_margin.hex(),
                    cert.divergence_residual_on_D.hex(),
                )
            )
        assert len(energies) == 1
        assert len(fidelities) == 1
        assert len(certificates) == 1


def composed_evaluation(u, f, mask, params):
    """Pixel energies, density residual and residual at u, composed from the public rules.

    The reference for ``_Plan``: each operation in the plan's order, on
    freshly allocated arrays, with the fidelity factor of ``euler_residual``.
    """
    grad, dev = gradient(u), u - f
    dev_norms = channel_norms(dev)
    energy = density_value(params.density, grad) + _fidelity_field(dev_norms, mask, params)
    density_residual = -divergence(density_gradient(params.density, grad))
    coef = params.lam * (~mask)[..., None]
    if params.zeta != 2.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            power = dev_norms ** (params.zeta - 2.0)
        coef = coef * np.where((dev_norms > 0.0) & ~mask, power, 0.0)[..., None]
    return energy, density_residual, dev * coef + density_residual


class TestFusedEvaluation:
    CASES = list(
        itertools.product(
            [(1, 1), (1, 7), (7, 1), (9, 8)],  # grids
            [1.2, 2.0, 3.0],  # mu
            [0.0, 0.01],  # delta
            [False, True],  # a hole
            [1.0, 255.0],  # data scale
        )
    )

    @pytest.mark.parametrize(
        "channels,zeta", list(itertools.product([1, 2, 3], [1.2, 1.5, 2.0, 3.0]))
    )
    def test_matches_public_functions_exactly(self, channels, zeta):
        # Every case, bit for bit: the plan's pixel energies, total, density
        # residual and residual, written into its buffers and the caller's,
        # against the public rules composed; a point equal to f on one known
        # pixel takes the zeta < 2 limit there.
        rng = np.random.default_rng(41)
        for (h, w), mu, delta, hole, scale in self.CASES:
            case = ((h, w), channels, mu, zeta, delta, hole, scale)
            f = scale * rng.uniform(size=(h, w, channels))
            u = _planar(f + scale * rng.normal(0.0, 0.3, size=f.shape))
            mask = np.zeros((h, w), dtype=bool)
            if hole:
                mask[h // 2, w // 2] = True
            u[-1, 0] = f[-1, 0]
            params = ModelParams(lam=2.0, zeta=zeta, density=DensityParams(mu, delta))
            energy, density_residual, residual = composed_evaluation(u, f, mask, params)

            plan = _Plan(f, mask, params)
            for buffer in (plan.grad_rows, plan.dev, plan.energy):
                buffer.fill(np.nan)
            pixel_energy = plan.evaluate(_plane_rows(u, (2, 0, 1)), plan.energy)
            assert pixel_energy is plan.energy, case
            assert same_bits(pixel_energy.reshape(mask.shape), energy), case
            assert _energy_total(pixel_energy) == _total(energy), case
            density_rows = np.full(plan.dev_rows.shape, np.nan)
            assert plan.residual(density_rows) is plan.dev_rows, case
            assert same_bits(_unstitched(density_rows, h, w), density_residual), case
            assert same_bits(plan.dev, residual), case
            # The public functions evaluate through a plan of their own, here
            # on a row-major u (f is row-major throughout).
            row_major = np.ascontiguousarray(u)
            assert primal_energy(row_major, f, mask, params) == _total(energy), case
            assert same_bits(euler_residual(row_major, f, mask, params), residual), case

    def test_total_is_density_plus_fidelity(self):
        rng = np.random.default_rng(43)
        f, mask = random_instance(rng, shape=(9, 9), channels=3)
        u = rng.normal(size=f.shape)
        params = ModelParams(lam=5.0, zeta=2.5, density=DensityParams(3.0, 0.1))
        separate = math.fsum(
            density_value(params.density, gradient(u)).ravel().tolist()
        ) + fidelity(u, f, mask, params)
        assert primal_energy(u, f, mask, params) == pytest.approx(separate, rel=1e-14)

    def test_damaged_pixels_carry_no_fidelity(self):
        u, f, mask = single_pixel(0.5, 0.0)
        params = ModelParams(lam=2.0, zeta=2.0, density=DensityParams(2.0))
        u[0, 1, 0] = 7.0
        plan = _Plan(f, mask, params)
        pixel_energy = plan.evaluate(_plane_rows(u, (2, 0, 1)), plan.energy)
        assert pixel_energy[1] == 0.0
        assert pixel_energy[0] == pytest.approx(
            0.25 + density_value(params.density, gradient(u))[0, 0], rel=1e-15
        )
