import tracemalloc

import numpy as np
from hypothesis import HealthCheck, settings

from viscotv.grid import _planar

# derandomize: every run draws the same examples, so a clean checkout (the
# example database under .hypothesis/ is not kept in git) reruns the same cases.
settings.register_profile(
    "numeric",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def checkerboard_instance(n=16, block=(6, 10)):
    """n x n 0/1 checkerboard with a damaged central block."""
    yy, xx = np.indices((n, n))
    f = ((yy + xx) % 2).astype(float)[:, :, None]
    mask = np.zeros((n, n), dtype=bool)
    mask[block[0] : block[1], block[0] : block[1]] = True
    return f, mask


def bridge_instance():
    """1x5 strip, endpoints known (0 and 1), the middle three damaged."""
    f = np.array([[[0.0], [0.0], [0.0], [0.0], [1.0]]])
    mask = np.array([[False, True, True, True, False]])
    return f, mask


def random_instance(rng, shape=(8, 8), channels=1, damage=0.3):
    f = rng.uniform(0.0, 1.0, size=(*shape, channels))
    mask = rng.uniform(size=shape) < damage
    mask[rng.integers(shape[0]), rng.integers(shape[1])] = False
    return f, mask


def layouts(u):
    """C-ordered, Fortran-ordered, misaligned (byte offset 1) and planar copies of u.

    The planar copy stores the axes after the two grid axes outermost, the
    memory order of ``grid.gradient``, ``grid.divergence`` and
    ``grid._planar``.
    """
    buf = np.empty(u.nbytes + 1, dtype=np.uint8)
    shifted = np.ndarray(u.shape, dtype=float, buffer=buf, offset=1)
    shifted[...] = u
    assert not shifted.flags.aligned
    order = (*range(2, u.ndim), 0, 1)
    planar = np.ascontiguousarray(u.transpose(order)).transpose(np.argsort(order))
    return [np.ascontiguousarray(u), np.asfortranarray(u), shifted, planar]


def planar_empty(shape):
    """An uninitialized float array of the given (H, W, ...) shape, channel-planar.

    The axes after the two grid axes are outermost in memory, the layout of
    ``grid._planar``: ``(M, H, W)`` for an image, ``(2, M, H, W)`` for a field.
    """
    n = len(shape)
    return np.empty(shape[2:] + shape[:2]).transpose(n - 2, n - 1, *range(n - 2))


def same_bits(a, b):
    """a and b have one shape and the same bytes entry by entry, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def hole_instance_color(n=128, seed=15):
    """Seeded n x n x 3 f with the central hole [3n/8, 5n/8)^2 and an iterate near f.

    f and u are channel-planar, the layout the solver keeps its images in.
    """
    rng = np.random.default_rng(seed)
    f = _planar(rng.uniform(size=(n, n, 3)))
    mask = np.zeros((n, n), dtype=bool)
    mask[3 * n // 8 : 5 * n // 8, 3 * n // 8 : 5 * n // 8] = True
    u = _planar(np.clip(f + rng.normal(0.0, 0.01, size=f.shape), 0.0, 1.0))
    return u, f, mask


def peak_allocation(call):
    """Peak bytes that ``call()`` holds allocated at once, by tracemalloc.

    numpy reports its data buffers to tracemalloc, so this counts every array
    the call makes, the returned one included.  Memory traced before the call
    is subtracted, so an outer trace does not count.
    """
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()
