import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import layouts
from viscotv.grid import (
    channel_norms,
    clamp_to_ball,
    divergence,
    gradient,
    pixel_norms,
    validate_image,
    validate_mask,
)


class TestGradient:
    def test_constant_image_has_zero_gradient(self):
        u = np.full((4, 5, 3), 0.7)
        assert (gradient(u) == 0.0).all()

    def test_two_pixel_strip(self):
        u = np.array([[[0.0], [1.0]]])  # 1 row, 2 columns
        g = gradient(u)
        assert g[0, 0, 0, 0] == 1.0
        g[0, 0, 0, 0] = 0.0
        assert (g == 0.0).all()

    def test_vertical_pair_constant(self):
        u = np.array([[[0.3]], [[0.3]]])
        assert (gradient(u) == 0.0).all()

    def test_boundary_rows_are_zero(self):
        rng = np.random.default_rng(0)
        g = gradient(rng.normal(size=(6, 7, 2)))
        assert (g[:, -1, 0, :] == 0.0).all()
        assert (g[-1, :, 1, :] == 0.0).all()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 6)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_zero_fill_on_every_layout(self, shape, channels):
        u = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=(*shape, channels))
        expected = np.zeros((*shape, 2, channels))
        expected[:, :-1, 0, :] = u[:, 1:, :] - u[:, :-1, :]
        expected[:-1, :, 1, :] = u[1:, :, :] - u[:-1, :, :]
        for v in layouts(u):
            g = gradient(v)
            assert g.shape == (*shape, 2, channels)
            assert (g == expected).all()


class TestDivergence:
    def test_zero_field(self):
        assert (divergence(np.zeros((3, 4, 2, 2))) == 0.0).all()

    def test_single_entry_matches_adjoint_of_basis_images(self):
        # On a 1x2 grid with p_x = 1 at the first pixel, the defining
        # identity <grad u, p> = -<u, div p> forces div p = (+1, -1).
        p = np.zeros((1, 2, 2, 1))
        p[0, 0, 0, 0] = 1.0
        d = divergence(p)
        for u in (np.array([[[1.0], [0.0]]]), np.array([[[0.0], [1.0]]])):
            lhs = float(np.vdot(gradient(u), p))
            rhs = -float(np.vdot(u, d))
            assert lhs == rhs
        assert d.ravel().tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (13, 5)])
    def test_adjoint_identity_random(self, shape, channels):
        rng = np.random.default_rng(hash((shape, channels)) % 2**32)
        for _ in range(10):
            u = rng.normal(size=(*shape, channels))
            p = rng.normal(size=(*shape, 2, channels))
            lhs = float(np.vdot(gradient(u), p))
            rhs = -float(np.vdot(u, divergence(p)))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 6), (40, 33)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_zero_fill_accumulation(self, shape, channels):
        # divergence starts from np.empty; it must equal accumulating every
        # difference into zeros, up to the sign of zero (== ignores it).
        p = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=(*shape, 2, channels))
        px, py = p[:, :, 0, :], p[:, :, 1, :]
        expected = np.zeros((*shape, channels))
        expected[:, :-1] += px[:, :-1]
        expected[:, 1:] -= px[:, :-1]
        expected[:-1] += py[:-1]
        expected[1:] -= py[:-1]
        for q in layouts(p):
            d = divergence(q)
            assert d.shape == (*shape, channels)
            assert (d == expected).all()


class TestPlanarLayout:
    def test_fields_are_channel_planes(self):
        u = np.random.default_rng(5).normal(size=(6, 5, 3))
        g = gradient(u)
        d = divergence(g)
        v = validate_image(u)
        for field in (g, d, v):
            for plane in field.reshape(*field.shape[:2], -1).transpose(2, 0, 1):
                assert plane.flags.c_contiguous
        assert np.array_equal(v, u)
        assert not np.shares_memory(v, u)


class TestNorms:
    def test_values(self):
        p = np.arange(12.0).reshape(1, 1, 2, 6)
        assert pixel_norms(p)[0, 0] == np.sqrt(np.sum(p * p))
        u = np.array([[[3.0, 4.0], [0.0, 0.0]]])
        assert np.array_equal(channel_norms(u), np.array([[5.0, 0.0]]))

    def test_single_channel_matches_plain_sum(self):
        p = np.random.default_rng(9).normal(size=(7, 6, 2, 1))
        assert np.array_equal(pixel_norms(p), np.sqrt(np.sum(p * p, axis=(-2, -1))))
        assert np.array_equal(channel_norms(p[:, :, 0]), np.abs(p[:, :, 0, 0]))

    @pytest.mark.parametrize("channels", [1, 3, 5])
    def test_same_bits_for_any_layout(self, channels):
        p = np.random.default_rng(channels).normal(size=(9, 8, 2, channels))
        strided = np.concatenate([p, p], axis=-1)[..., :channels]
        for copy in (np.asfortranarray(p), strided):
            assert np.array_equal(pixel_norms(copy), pixel_norms(p))
            assert np.array_equal(channel_norms(copy[:, :, 1]), channel_norms(p[:, :, 1]))

    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1), (9, 8)])
    def test_match_linalg_norm_and_layout(self, shape, channels):
        rng = np.random.default_rng(channels)
        p = rng.normal(size=(*shape, 2, channels)) * 10.0 ** rng.uniform(-3, 3, (*shape, 1, 1))
        u = p[:, :, 1, :]
        cases = (
            (pixel_norms, p, np.linalg.norm(p.reshape(*shape, -1), axis=-1)),
            (channel_norms, u, np.linalg.norm(u, axis=-1)),
        )
        for norms, field, expected in cases:
            got = norms(field)
            ulp = np.spacing(expected)
            assert (np.abs(got - expected) <= 4.0 * ulp).all()
            for copy in layouts(field):
                assert norms(copy).tobytes() == got.tobytes()


class TestClamp:
    def test_identity_inside_ball(self):
        u = np.array([[[0.3, -0.4], [0.0, 0.9]]])
        assert np.array_equal(clamp_to_ball(u, 1.0), u)

    def test_scalar_projection(self):
        u = np.array([[[2.0]]])
        assert clamp_to_ball(u, 0.5)[0, 0, 0] == 0.5

    def test_vector_projection(self):
        u = np.array([[[3.0, 4.0]]])
        assert np.allclose(clamp_to_ball(u, 1.0)[0, 0], [0.6, 0.8])

    def test_rejects_negative_radius(self):
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                clamp_to_ball(np.zeros((1, 1, 1)), radius)

    def test_zero_radius_collapses(self):
        u = np.array([[[5.0], [-2.0]]])
        assert (clamp_to_ball(u, 0.0) == 0.0).all()

    @given(st.integers(0, 10_000))
    def test_projection_is_one_lipschitz_on_gradients(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(5, 5, 2)) * 3.0
        radius = rng.uniform(0.1, 2.0)
        before = pixel_norms(gradient(u))
        after = pixel_norms(gradient(clamp_to_ball(u, radius)))
        assert (after <= before + 1e-12).all()

    @given(st.integers(0, 10_000))
    def test_projection_never_increases_fidelity(self, seed):
        rng = np.random.default_rng(seed)
        radius = rng.uniform(0.2, 2.0)
        u = rng.normal(size=(4, 6, 2)) * 4.0
        f = clamp_to_ball(rng.normal(size=(4, 6, 2)), radius)  # |f| <= radius
        before = channel_norms(u - f)
        after = channel_norms(clamp_to_ball(u, radius) - f)
        assert (after <= before + 1e-12).all()


class TestValidators:
    def test_image_shape(self):
        with pytest.raises(ValueError):
            validate_image(np.zeros((4, 4)))

    def test_image_finite(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_image(bad)

    def test_mask_dtype_and_dims(self):
        with pytest.raises(ValueError):
            validate_mask(np.zeros((2, 2), dtype=float))
        with pytest.raises(ValueError):
            validate_mask(np.zeros((2, 2, 1), dtype=bool))

    def test_mask_must_leave_a_known_pixel(self):
        with pytest.raises(ValueError):
            validate_mask(np.ones((3, 3), dtype=bool))

    def test_mask_image_shape_agreement(self):
        with pytest.raises(ValueError):
            validate_mask(np.zeros((2, 3), dtype=bool), image=np.zeros((3, 2, 1)))
