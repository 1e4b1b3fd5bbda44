import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import layouts, planar_empty, same_bits
from viscotv.grid import (
    _clamp_in_place,
    _image_check,
    _planar,
    _scalar_check,
    _shape_check,
    channel_norms,
    clamp_to_ball,
    divergence,
    gradient,
    pixel_norms,
)


def row_bands(x):
    """Row bands ``x[a:b]`` of row-major and planar copies of x, as ``certify`` slices them."""
    row_major, _, _, planar = layouts(x)
    h = len(x)
    return [v[a:b] for v in (row_major, planar) for a, b in ((0, h - h // 2), (h // 3, h))]


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 6), (3, 8), (8, 8)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_zero_fill_on_every_layout(self, shape, channels):
        u = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=(*shape, channels))
        for v in layouts(u) + row_bands(u):
            expected = np.zeros((*v.shape[:2], 2, channels))
            expected[:, :-1, 0, :] = v[:, 1:, :] - v[:, :-1, :]
            expected[:-1, :, 1, :] = v[1:, :, :] - v[:-1, :, :]
            g = gradient(v)
            assert g.shape == expected.shape
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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 6), (40, 33), (3, 8), (8, 8)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_zero_fill_accumulation(self, shape, channels):
        # divergence starts from np.empty; it must equal, bit for bit, writing
        # px, then 0 at the last column, and accumulating every difference.
        # Zeros of both signs in p make the sign of a zero count: the last
        # column is 0 - px, never -px.
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        p = rng.normal(size=(*shape, 2, channels))
        p[rng.uniform(size=p.shape) < 0.3] = 0.0
        p[rng.uniform(size=p.shape) < 0.1] = -0.0
        for q in layouts(p) + row_bands(p):
            px, py = q[:, :, 0, :], q[:, :, 1, :]
            expected = np.empty((*q.shape[:2], channels))
            expected[:, :-1] = px[:, :-1]
            expected[:, -1] = 0.0
            expected[:, 1:] -= px[:, :-1]
            expected[:-1] += py[:-1]
            expected[1:] -= py[:-1]
            d = divergence(q)
            assert same_bits(d, expected)
            # dual_value negates the divergence in place of its own buffer.
            assert same_bits(np.negative(d, out=d), np.negative(expected))


class TestPlanarLayout:
    def test_fields_are_channel_planes(self):
        u = np.random.default_rng(5).normal(size=(6, 5, 3))
        g = gradient(u)
        d = divergence(g)
        v = _planar(u)
        for field in (g, d, v, planar_empty(g.shape), planar_empty(u.shape)):
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


class TestScalarCheck:
    def test_returns_float(self):
        for x in (3, np.int64(3), np.float32(3.0), 3.0):
            got = _scalar_check(x, "x", 1.0)
            assert type(got) is float and got == 3.0

    def test_closed_admits_the_limit(self):
        assert _scalar_check(0, "x", 0.0, closed=True) == 0.0
        with pytest.raises(ValueError, match="x must be a finite real > 0.0, got 0"):
            _scalar_check(0, "x", 0.0)

    @pytest.mark.parametrize(
        "x",
        [True, np.bool_(True), "3", None, float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["True", "np.True_", "str", "None", "nan", "inf", "-inf", "10**400"],
    )
    def test_rejected(self, x):
        with pytest.raises(ValueError, match="x must be a finite real >= 0.5"):
            _scalar_check(x, "x", 0.5, closed=True)


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

    def test_overflowing_norm_is_projected(self):
        # The norms of the first two pixels overflow to inf; each still lands
        # on the sphere, along its own direction, and the finite pixel beside
        # them takes the bits of its own projection.
        u = np.array([[[3e200, -4e200], [1e308, 1e308], [3.0, 4.0]]])
        clamped = clamp_to_ball(u, 0.5)
        with np.errstate(over="ignore"):
            assert np.isinf(channel_norms(u)[0, :2]).all()
        assert np.allclose(clamped[0, :2], [[0.3, -0.4], [0.5**1.5, 0.5**1.5]], rtol=1e-15, atol=0)
        assert same_bits(clamped[0, 2], clamp_to_ball(u[:, 2:], 0.5)[0, 0])
        assert clamp_to_ball(np.array([[[1.7e200]]]), 0.5)[0, 0, 0] == 0.5

    def test_rejects_negative_radius(self):
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                clamp_to_ball(np.zeros((1, 1, 1)), radius)

    @pytest.mark.parametrize("radius", [True, np.True_, math.inf, -math.inf, "1", None])
    def test_radius_follows_the_scalar_rule(self, radius):
        with pytest.raises(ValueError, match="^radius must be a finite real >= 0.0"):
            clamp_to_ball(np.zeros((1, 1, 1)), radius)

    def test_radius_is_taken_as_float(self):
        u = np.array([[[3.0, 4.0]]])
        assert same_bits(clamp_to_ball(u, 1), clamp_to_ball(u, np.float32(1.0)))

    @pytest.mark.parametrize("planar", [False, True])
    def test_in_place_matches_and_leaves_input(self, planar):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(5, 4, 3)) * 2.0
        u = _planar(u) if planar else u
        before = u.copy()
        expected = u * np.where(channel_norms(u) > 1.5, 1.5 / channel_norms(u), 1.0)[..., None]
        clamped = clamp_to_ball(u, 1.5)
        assert same_bits(clamped, expected) and same_bits(u, before)
        assert _clamp_in_place(u, 1.5) is u
        assert same_bits(u, expected)

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
            _image_check(np.zeros((4, 4)), "f")

    def test_image_finite(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            _image_check(bad, "f")

    def test_mask_dtype_and_dims(self):
        f = np.zeros((2, 2, 1))
        with pytest.raises(ValueError, match="2-d bool"):
            _shape_check(None, f, np.zeros((2, 2), dtype=float))
        with pytest.raises(ValueError, match="2-d bool"):
            _shape_check(None, f, np.zeros((2, 2, 1), dtype=bool))
