"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavyweight continuation runs are shared module-scoped
fixtures so the whole suite stays fast.
"""

import time

import numpy as np
import pytest

from conftest import bridge_instance, checkerboard_instance, random_instance
from oracle import brute_force_minimize, fd_gradient, phi_by_quadrature
from viscotv import netpbm
from viscotv.cli import load_image, run, save_image
from viscotv.density import (
    DensityParams,
    density_gradient,
    density_value,
    phi,
    phi_conjugate,
)
from viscotv.dual import dual_from_primal, dual_value, sup_known_norm
from viscotv.energy import ModelParams, euler_residual, primal_energy
from viscotv.grid import clamp_to_ball, divergence, gradient
from viscotv.solver import SolverConfig, check_max_principle, continuation

MUS = (1.5, 2.0, 3.0)
ZETAS = (1.5, 2.0, 3.0)


def report(line):
    print(f"\n[acceptance] {line}: PASS", end="")


def model(mu=2.0, delta=0.0, lam=10.0, zeta=2.0):
    return ModelParams(lam=lam, zeta=zeta, density=DensityParams(mu, delta))


# -- shared solve fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def certified_solves():
    """Criterion 7 runs: the 16x16 block-inpainting instance per zeta."""
    f, mask = checkerboard_instance()
    out = {}
    for zeta, tol in ((2.0, 1e-4), (1.5, 1e-3), (3.0, 1e-3)):
        t0 = time.perf_counter()
        u, cert, recs = continuation(
            f, mask, model(zeta=zeta), SolverConfig(gap_tol=tol)
        )
        out[zeta] = dict(
            u=u, cert=cert, recs=recs, tol=tol, wall=time.perf_counter() - t0,
            f=f, mask=mask,
        )
    return out


@pytest.fixture(scope="module")
def full_schedule_solves():
    """Criterion 10 runs: same instances, gap stop disabled, schedule floor 1e-9."""
    f, mask = checkerboard_instance()
    out = {}
    for zeta in ZETAS:
        t0 = time.perf_counter()
        u, cert, recs = continuation(
            f, mask, model(zeta=zeta),
            SolverConfig(gap_tol=1e-300, delta_min=1e-9),
        )
        out[zeta] = dict(u=u, cert=cert, recs=recs, wall=time.perf_counter() - t0)
    return out


def oracle_instances():
    """Ten desk-scale instances, <= 8 unknowns each, single channel."""
    rng = np.random.default_rng(2024)
    bridge_f, bridge_mask = bridge_instance()
    instances = [
        ("bridge-1x5", bridge_f, bridge_mask, model(lam=1e4)),
        (
            "const-2x2",
            np.full((2, 2, 1), 0.4),
            np.array([[False, False], [True, False]]),
            model(lam=50.0),
        ),
        (
            "hole-2x2",
            np.array([[[0.2], [0.8]], [[0.6], [0.1]]]),
            np.array([[False, False], [False, True]]),
            model(lam=100.0),
        ),
        (
            "denoise-2x2",
            np.array([[[0.1], [0.9]], [[0.8], [0.2]]]),
            np.zeros((2, 2), dtype=bool),
            model(lam=2.0, zeta=1.5),
        ),
        (
            "tall-2x3",
            rng.uniform(size=(3, 2, 1)),
            np.array([[False, True], [False, False], [True, False]]),
            model(mu=3.0, lam=10.0),
        ),
        (
            "wide-2x4",
            rng.uniform(size=(2, 4, 1)),
            np.array([[False, True, False, True], [True, False, False, False]]),
            model(mu=1.5, lam=10.0),
        ),
        (
            "strip-1x8",
            rng.uniform(size=(1, 8, 1)),
            np.array([[False, True, False, True, False, True, False, True]]),
            model(lam=50.0, zeta=3.0),
        ),
        (
            "ramp-1x6",
            np.linspace(0.0, 1.0, 6).reshape(1, 6, 1),
            np.array([[False, True, True, False, True, False]]),
            model(lam=1000.0),
        ),
        (
            "mixed-2x3",
            rng.uniform(size=(2, 3, 1)),
            np.array([[False, False, True], [False, False, False]]),
            model(mu=3.0, lam=20.0, zeta=1.5),
        ),
        (
            "sparse-1x7",
            rng.uniform(size=(1, 7, 1)),
            np.array([[False, True, True, False, True, True, False]]),
            model(mu=1.5, lam=5.0, zeta=3.0),
        ),
    ]
    return instances


@pytest.fixture(scope="module")
def oracle_runs():
    runs = []
    t0 = time.perf_counter()
    for name, f, mask, params in oracle_instances():
        bound = sup_known_norm(f, mask)
        u_oracle, e_oracle = brute_force_minimize(f, mask, params, bound)
        u_solver, cert, _ = continuation(
            f, mask, params, SolverConfig(gap_tol=2e-5, inner_tol=1e-9)
        )
        runs.append(
            dict(
                name=name, f=f, mask=mask, params=params,
                u_oracle=u_oracle, e_oracle=e_oracle,
                u_solver=u_solver, cert=cert,
            )
        )
    wall = time.perf_counter() - t0
    return runs, wall


# -- criteria ----------------------------------------------------------------


def test_criterion_1_density_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for mu in MUS:
        p = DensityParams(mu)
        P = rng.normal(size=(1000, 2, 2))
        norms = np.sqrt(np.sum(P * P, axis=(-2, -1)))
        P *= (rng.uniform(0.0, 100.0, size=1000) / np.maximum(norms, 1e-12))[
            :, None, None
        ]
        values = density_value(p, P)
        DF = density_gradient(p, P)
        conj = phi_conjugate(p, np.sqrt(np.sum(DF * DF, axis=(-2, -1))))
        pairing = np.sum(P * DF, axis=(-2, -1))
        assert np.max(np.abs(values + conj - pairing)) <= 1e-9
    wall = time.perf_counter() - t0
    assert wall < 1.0
    report(f"criterion 1: Fenchel-Young equality, 3000 samples ({wall:.2f}s)")


def test_criterion_2_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    for mu in MUS:
        p = DensityParams(mu)
        for t in (0.1, 1.0, 10.0, 100.0):
            closed = phi(p, t)
            quad = phi_by_quadrature(mu, t)
            assert abs(closed - quad) <= 1e-10 * abs(quad)
    wall = time.perf_counter() - t0
    assert wall < 5.0
    report(f"criterion 2: closed form vs quadrature on the (mu, t) grid ({wall:.2f}s)")


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    deltas = (0.0, 1e-3, 0.1)
    combos = [
        (mu, deltas[(i + j) % 3], zeta)
        for i, mu in enumerate(MUS)
        for j, zeta in enumerate(ZETAS)
    ]
    assert len(combos) == 9
    for mu, delta, zeta in combos:
        params = model(mu=mu, delta=delta, zeta=zeta, lam=1.0)
        f, mask = random_instance(rng, shape=(6, 6))
        u = rng.uniform(size=f.shape)
        res = euler_residual(u, f, mask, params)
        step = 1e-6 * (1.0 + float(np.max(np.abs(u))))
        fd = fd_gradient(u, f, mask, params, step)
        ok = np.abs(u - f).max(axis=-1) >= 1e-8  # skip zeta<2 coincidences
        rel = np.max(np.abs(res - fd)[ok]) / np.max(np.abs(fd))
        assert rel <= 1e-6, (mu, delta, zeta, rel)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    report(f"criterion 3: residual vs finite differences, 9 combos ({wall:.2f}s)")


def test_criterion_4_adjointness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        m = int(rng.choice([1, 3]))
        u = rng.normal(size=(h, w, m))
        p = rng.normal(size=(h, w, 2, m))
        lhs = float(np.vdot(gradient(u), p))
        rhs = -float(np.vdot(u, divergence(p)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    wall = time.perf_counter() - t0
    assert wall < 2.0
    report(f"criterion 4: gradient/divergence adjoint identity x100 ({wall:.2f}s)")


def test_criterion_5_weak_duality_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    count = 0
    while count < 200:
        zeta = ZETAS[count % 3]
        params = model(zeta=zeta, lam=float(rng.uniform(0.5, 20.0)))
        f, mask = random_instance(
            rng, shape=(int(rng.integers(2, 9)), int(rng.integers(2, 9))),
            channels=int(rng.integers(1, 3)),
        )
        bound = sup_known_norm(f, mask)
        u = clamp_to_ball(rng.uniform(-2.0, 2.0, size=f.shape), bound)
        tau, _ = dual_from_primal(u, params)
        dv = dual_value(tau, f, mask, params, bound)
        primal = primal_energy(u, f, mask, params.without_viscosity())
        assert dv <= primal + 1e-10
        count += 1
    wall = time.perf_counter() - t0
    assert wall < 10.0
    report(f"criterion 5: weak duality on 200 random bounded fields ({wall:.2f}s)")


def test_criterion_6_oracle_equivalence(oracle_runs):
    runs, wall = oracle_runs
    assert len(runs) == 10
    for r in runs:
        diff = abs(r["cert"].primal_value - r["e_oracle"])
        assert diff <= 1e-4, (r["name"], diff)
        sup = float(np.max(np.abs(r["u_solver"] - r["u_oracle"])))
        assert sup <= 1e-3, (r["name"], sup)
    bridge = runs[0]
    expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.max(np.abs(bridge["u_solver"].ravel() - expected)) <= 1e-2
    assert wall < 60.0
    report(f"criterion 6: oracle equivalence on 10 desk instances ({wall:.1f}s)")


def test_criterion_7_certified_solves(certified_solves):
    for zeta, data in certified_solves.items():
        assert data["cert"].relative_gap <= data["tol"], zeta
        assert data["recs"][-1].delta > 1e-8
        assert data["wall"] < 60.0
    gaps = {z: f"{d['cert'].relative_gap:.2e}" for z, d in certified_solves.items()}
    report(f"criterion 7: certified 16x16 block inpainting, gaps {gaps}")


def test_criterion_8_maximum_principle(certified_solves, oracle_runs):
    t0 = time.perf_counter()
    for data in certified_solves.values():
        check = check_max_principle(data["u"], data["f"], data["mask"])
        assert check.margin >= -1e-8
    for r in oracle_runs[0]:
        check = check_max_principle(r["u_solver"], r["f"], r["mask"])
        assert check.margin >= -1e-8
    rng = np.random.default_rng(8)
    for _ in range(20):
        f, mask = random_instance(
            rng, shape=(int(rng.integers(3, 9)), int(rng.integers(3, 9))),
            channels=int(rng.integers(1, 3)), damage=0.4,
        )
        params = model(
            mu=float(rng.choice(MUS)), zeta=float(rng.choice(ZETAS)),
            lam=float(rng.uniform(1.0, 30.0)),
        )
        u, _, _ = continuation(f, mask, params, SolverConfig())
        check = check_max_principle(u, f, mask)
        assert check.margin >= -1e-8
    wall = time.perf_counter() - t0
    report(f"criterion 8: max principle on all solves + 20 randomized ({wall:.1f}s)")


def test_criterion_9_uniqueness_analogues():
    t0 = time.perf_counter()
    f, mask = checkerboard_instance(n=10, block=(4, 7))
    params = model()
    bound = sup_known_norm(f, mask)

    # fixed delta = 1e-2: full fields agree to 1e-6
    cfg = SolverConfig(inner_tol=1e-10, inner_max_iters=40000)
    starts = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        starts.append(clamp_to_ball(rng.uniform(-1.0, 1.0, size=f.shape), bound))
    from viscotv.solver import minimize_smooth

    r1 = minimize_smooth(starts[0], 1e-2, f, mask, params, cfg)
    r2 = minimize_smooth(starts[1], 1e-2, f, mask, params, cfg)
    fixed_diff = float(np.max(np.abs(r1.u - r2.u)))
    assert fixed_diff <= 1e-6

    # end of continuation from two seeds: gradients and known values agree
    cfg2 = SolverConfig(gap_tol=1e-7, inner_tol=1e-10, inner_max_iters=40000)
    finals = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        u0 = clamp_to_ball(rng.uniform(-1.0, 1.0, size=f.shape), bound)
        u, _, _ = continuation(f, mask, params, cfg2, u0=u0)
        finals.append(u)
    grad_diff = float(np.max(np.abs(gradient(finals[0]) - gradient(finals[1]))))
    known = ~mask
    known_diff = float(np.max(np.abs(finals[0][known] - finals[1][known])))
    assert grad_diff <= 1e-5
    assert known_diff <= 1e-5
    wall = time.perf_counter() - t0
    assert wall < 120.0
    report(
        "criterion 9: two-start/two-seed uniqueness "
        f"(fixed {fixed_diff:.1e}, grad {grad_diff:.1e}, known {known_diff:.1e}, "
        f"{wall:.1f}s)"
    )


def test_criterion_10_viscosity_decay(full_schedule_solves):
    for zeta, data in full_schedule_solves.items():
        visc = [2.0 * (r.I_delta_value - r.I_value) for r in data["recs"]]
        assert len(visc) >= 3
        assert visc[-3] > visc[-2] > visc[-1], zeta
        assert visc[-1] <= 1e-6, (zeta, visc[-1])
    finals = {z: f"{2.0 * (d['recs'][-1].I_delta_value - d['recs'][-1].I_value):.1e}"
              for z, d in full_schedule_solves.items()}
    report(f"criterion 10: viscous energy decay, final values {finals}")


def test_criterion_11_cli_round_trip_and_determinism(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    samples = rng.integers(0, 256, size=(8, 8, 1)).astype(np.uint16)
    src = tmp_path / "in.pgm"
    netpbm.write(src, netpbm.NetpbmImage("P5", 255, samples))

    # load -> save with no solve is bit-identical
    copy = tmp_path / "copy.pgm"
    save_image(copy, load_image(src), "P5", 255)
    assert src.read_bytes() == copy.read_bytes()

    maskdata = np.zeros((8, 8, 1), dtype=np.uint16)
    maskdata[3:5, 3:5] = 255
    mask_path = tmp_path / "mask.pgm"
    netpbm.write(mask_path, netpbm.NetpbmImage("P5", 255, maskdata))

    args = [
        "--input", str(src), "--mask", str(mask_path),
        "--output", str(tmp_path / "out.pgm"),
        "--report", str(tmp_path / "report.txt"),
        "--log-csv", str(tmp_path / "log.csv"),
        "--seed", "5",
    ]
    assert run(args) in (0, 2)
    first = (tmp_path / "report.txt").read_bytes()
    first_out = (tmp_path / "out.pgm").read_bytes()
    assert run(args) in (0, 2)
    assert (tmp_path / "report.txt").read_bytes() == first
    assert (tmp_path / "out.pgm").read_bytes() == first_out
    wall = time.perf_counter() - t0
    assert wall < 5.0
    report(f"criterion 11: CLI round-trip and byte-identical reports ({wall:.2f}s)")
