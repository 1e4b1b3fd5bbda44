#!/usr/bin/env python3
"""Certified-solve benchmark for viscotv.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed``, runs ops closed-loop (the next
op starts when the previous one returns) for ``--seconds`` seconds in this one
process, checks every output, prints a human-readable table and, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs of each input and reports per-layer
metrics from spans recorded around the package's public functions.  Exits 1
when any output fails its check, 2 when the package cannot be imported.
"""

import os

# The solver is serial numpy: pin BLAS/OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402  (perfbench/spans.py, beside this file)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAYERS = ("grid", "density", "energy", "dual", "solver", "netpbm", "cli")

MU, LAM, GAP_TOL = 2.0, 10.0, 1e-4
SETUP_REPS = 3
# The warm-up op's input is the same for every seed: an op's cost varies with
# its input by 20-30%, and set-up time should not.
WARMUP_SEED = 8128
TRACE_INPUTS = 8  # per-layer counts come from the first traced pass over these

# On a shared 2-vCPU KVM host, speed drifts by +-15% over tens of seconds, more
# than any run-to-run difference worth gating.  Every timing is therefore also
# taken against a fixed numpy kernel that never touches viscotv, timed just
# before and after each op, and reported in seconds at the speed where that
# kernel takes REF_NOMINAL_S.  The raw seconds are printed beside them.
REF_NOMINAL_S = 0.024
_REF_BIG = np.random.default_rng(0).uniform(size=(128, 128, 2, 3))
_REF_SMALL = _REF_BIG[:64, :64, :, :1].copy()


def reference_seconds():
    """Time the reference kernel: pixel norms of a large and a small field."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.sqrt(np.sum(_REF_BIG * _REF_BIG, axis=(-2, -1)))
    for _ in range(160):
        np.sqrt(np.sum(_REF_SMALL * _REF_SMALL, axis=(-2, -1)))
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    kind: str  # "solve" (continuation), "cli" (cli.run) or "audit" (certify)
    n: int  # grid side
    channels: int
    hole: bool
    zeta: float
    instances: int  # distinct seeded inputs per run, cycled through


# The benchmarked set is listed in BENCHMARK.json.  The two "reference" entries
# are the ROADMAP's hand-timed cases; one op takes 12-30 s, too long to
# repeat in every run, so they are run by hand (see README.md).
WORKLOADS = {
    "inpaint_gray48": Workload("solve", 48, 1, True, 2.0, 36),
    "denoise_color96_cli": Workload("cli", 96, 3, False, 2.0, 40),
    "certify_audit_color512": Workload("audit", 512, 3, True, 2.0, 4),
    "inpaint_gray128": Workload("solve", 128, 1, True, 2.0, 1),  # reference
    "inpaint_zeta15_gray32": Workload("solve", 32, 1, True, 1.5, 1),  # reference
}

# The end-to-end metrics the JSON line carries.  inner_iters and outer_steps
# are 0 on the audit and failed_frac is 0 on a healthy run, so they are
# printed in the table but reported per layer (solver.*) or through "failed".
END_TO_END = (
    "setup_s", "op_s", "op_s_tail", "mpix_per_s", "final_gap", "certified_frac", "peak_rss_mb",
)  # fmt: skip

PER_LAYER = (
    ("energy.primal_energy.calls", "calls/op"),
    ("energy.primal_energy.self_s", "s/op"),
    ("energy.primal_energy.us_per_call", "us"),
    ("energy.fidelity.self_s", "s/op"),
    ("energy.euler_residual.calls", "calls/op"),
    ("energy.euler_residual.self_s", "s/op"),
    ("solver.inner_iters", "count/op"),
    ("solver.outer_steps", "count/op"),
    ("solver.energy_evals_per_iter", "ratio"),
    ("solver.residual_evals_per_iter", "ratio"),
    ("solver.accept_ratio", "ratio"),
    ("solver.cap_hits", "count/op"),
    ("solver.minimize_smooth.self_s", "s/op"),
    ("grid.gradient.calls", "calls/op"),
    ("grid.gradient.self_s", "s/op"),
    ("grid.divergence.calls", "calls/op"),
    ("grid.divergence.self_s", "s/op"),
    ("grid.gbytes_computed", "GB/op"),
    ("grid.gb_per_s_computed", "GB/s"),
    ("density.density_value.self_s", "s/op"),
    ("density.density_gradient.self_s", "s/op"),
    ("density.phi_conjugate.calls", "calls/op"),
    ("density.phi_conjugate.self_s", "s/op"),
    ("dual.certify.calls", "calls/op"),
    ("dual.certify.self_s", "s/op"),
    ("dual.dual_value.self_s", "s/op"),
    ("netpbm.read.s", "s/op"),
    ("netpbm.write.s", "s/op"),
    ("cli.run.self_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
)


def import_package():
    """Import the package from this checkout's ``src`` and time it."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"viscotv.{name}") for name in LAYERS}
    seconds = time.perf_counter() - t0
    origin = Path(mods["solver"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"viscotv was imported from {origin}, not from {SRC}")
    return mods, seconds


# --------------------------------------------------------------------------
# Inputs


def blocky_image(rng, n, channels):
    """8 x 8 piecewise-constant blocks, uniform levels, N(0, 0.05^2) noise, in [0, 1]."""
    levels = rng.uniform(0.0, 1.0, size=(8, 8, channels))
    block = np.arange(n) * 8 // n
    f = levels[block[:, None], block[None, :]]
    return np.clip(f + rng.normal(0.0, 0.05, f.shape), 0.0, 1.0)


def damage_mask(n, hole):
    """The central square [3n/8, 5n/8)^2, or no damage."""
    mask = np.zeros((n, n), dtype=bool)
    if hole:
        mask[3 * n // 8 : 5 * n // 8, 3 * n // 8 : 5 * n // 8] = True
    return mask


@dataclass
class Outcome:
    gap: float
    passed: bool
    fingerprint: bytes  # must repeat exactly when the same input is rerun
    inner_iters: int = 0
    outer_steps: int = 0
    problem: str = ""


class SolveInstance:
    """One ``continuation`` call on a noisy blocky image."""

    def __init__(self, mods, wl, rng):
        self.mods = mods
        self.f = blocky_image(rng, wl.n, wl.channels)
        self.mask = damage_mask(wl.n, wl.hole)
        self.params = mods["energy"].ModelParams(
            lam=LAM, zeta=wl.zeta, density=mods["density"].DensityParams(MU)
        )
        self.cfg = mods["solver"].SolverConfig(
            delta0=0.1, delta_factor=0.1, gap_tol=GAP_TOL, inner_max_iters=5000
        )

    def call(self):
        return self.mods["solver"].continuation(self.f, self.mask, self.params, self.cfg)

    def check(self, result):
        u, cert, records = result
        mp = self.mods["solver"].check_max_principle(u, self.f, self.mask)
        problems = []
        if not cert.relative_gap <= GAP_TOL:
            problems.append(f"gap {cert.relative_gap:.3e} > {GAP_TOL}")
        if not cert.dual_value <= cert.primal_value:
            problems.append("weak duality violated")
        if not mp.passed:
            problems.append(f"maximum principle fails by {-mp.margin:.3e}")
        return Outcome(
            gap=cert.relative_gap,
            passed=not problems,
            fingerprint=hashlib.sha256(np.ascontiguousarray(u).tobytes()).digest(),
            inner_iters=sum(r.inner_iterations for r in records),
            outer_steps=len(records),
            problem="; ".join(problems),
        )


class CliExitError(RuntimeError):
    """The CLI returned a nonzero exit code (2: no certificate, 1: I/O)."""


class CliInstance:
    """One in-process ``cli.run`` on a P6 file, with report and CSV log."""

    def __init__(self, mods, wl, rng, label, workdir):
        self.mods = mods
        samples = np.rint(blocky_image(rng, wl.n, wl.channels) * 255).astype(np.uint8)
        self.input = workdir / f"in{label}.ppm"
        self.output = workdir / f"out{label}.ppm"
        self.report = workdir / f"report{label}.txt"
        self.log = workdir / f"log{label}.csv"
        with open(self.input, "wb") as handle:
            handle.write(b"P6\n%d %d\n255\n" % (wl.n, wl.n) + samples.tobytes())
        self.argv = [
            "--input", str(self.input), "--output", str(self.output),
            "--report", str(self.report), "--log-csv", str(self.log),
            "--mu", repr(MU), "--lambda", repr(LAM), "--zeta", repr(wl.zeta),
            "--tol", repr(GAP_TOL),
        ]  # fmt: skip

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.mods["cli"].run(self.argv)
        if code != 0:
            raise CliExitError(f"viscotv exited with code {code}")

    def check(self, _):
        report = self.report.read_bytes()
        pairs = dict(
            line.split("=", 1) for line in report.decode().splitlines() if "=" in line
        )
        # The CSV's trailing column is wall-clock seconds; the rest must repeat.
        log = b"\n".join(
            line.rsplit(b",", 1)[0] for line in self.log.read_bytes().splitlines()
        )
        gap = float(pairs["relative_gap"])
        problems = []
        if not gap <= GAP_TOL:
            problems.append(f"gap {gap:.3e} > {GAP_TOL}")
        if not float(pairs["dual_value"]) <= float(pairs["final_I"]):
            problems.append("weak duality violated")
        if pairs["max_principle_pass"] != "true":
            problems.append("maximum principle fails")
        digest = hashlib.sha256()
        for part in (self.output.read_bytes(), report, log):
            digest.update(hashlib.sha256(part).digest())
        for path in (self.output, self.report, self.log):
            path.unlink()  # the next op must write its own
        return Outcome(
            gap=gap,
            passed=not problems,
            fingerprint=digest.digest(),
            inner_iters=int(pairs["total_inner_iterations"]),
            outer_steps=int(pairs["outer_steps"]),
            problem="; ".join(problems),
        )


class AuditInstance:
    """One ``certify`` call on a seeded iterate near a blocky image; no solve."""

    def __init__(self, mods, wl, rng):
        self.mods = mods
        self.f = blocky_image(rng, wl.n, wl.channels)
        self.mask = damage_mask(wl.n, wl.hole)
        self.bound = float(np.sqrt((self.f * self.f).sum(axis=-1))[~self.mask].max())
        self.params = mods["energy"].ModelParams(
            lam=LAM, zeta=wl.zeta, density=mods["density"].DensityParams(MU)
        )
        self.u = np.clip(self.f + rng.normal(0.0, 0.01, self.f.shape), 0.0, 1.0)

    def call(self):
        return self.mods["dual"].certify(self.u, self.f, self.mask, self.params, self.bound)

    def check(self, cert):
        ok = cert.dual_value <= cert.primal_value and math.isfinite(cert.relative_gap)
        return Outcome(
            gap=cert.relative_gap,
            passed=ok,
            fingerprint=struct.pack(
                "<3d", cert.relative_gap, cert.primal_value, cert.dual_value
            ),
            problem="" if ok else "weak duality violated or infinite gap",
        )


def make_instance(mods, name, wl, rng, label):
    if wl.kind == "solve":
        return SolveInstance(mods, wl, rng)
    if wl.kind == "cli":
        workdir = WORK / name
        workdir.mkdir(parents=True, exist_ok=True)
        return CliInstance(mods, wl, rng, label, workdir)
    return AuditInstance(mods, wl, rng)


def make_instances(mods, name, wl, seed):
    """The run's inputs: input i of seed s is drawn from default_rng([s, i])."""
    return [
        make_instance(mods, name, wl, np.random.default_rng([seed, i]), str(i))
        for i in range(wl.instances)
    ]


# --------------------------------------------------------------------------
# Ops


@dataclass
class OpRecord:
    instance: int
    seconds: float
    traced: bool
    outcome: Outcome = None  # None when the op raised
    error: str = ""
    ref_before: float = 0.0  # reference kernel seconds just before the op
    calibrated: float = 0.0  # seconds at the nominal reference speed


class Runner:
    """Runs ops, checks each output and its repeatability per instance."""

    def __init__(self, instances, tracer=None):
        self.instances = instances
        self.tracer = tracer
        self.records = []
        self.problems = []
        self._first = {}
        self._traced_ops = 0

    def attempt(self, index, traced=False):
        inst = self.instances[index]
        if traced:
            scope = self.tracer.traced_op(self._traced_ops)
            self._traced_ops += 1
        else:
            scope = contextlib.nullcontext()
        rec = OpRecord(instance=index, seconds=0.0, traced=traced)
        rec.ref_before = reference_seconds()
        t0 = time.perf_counter()
        try:
            with scope:
                result = inst.call()
            rec.seconds = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is counted, the run goes on
            rec.seconds = time.perf_counter() - t0
            rec.error = type(exc).__name__
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"instance {index}: raised {rec.error}: {exc}")
            return rec
        try:
            rec.outcome = inst.check(result)
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
            rec.outcome = Outcome(gap=math.inf, passed=False, fingerprint=b"", problem=repr(exc))
        if not rec.outcome.passed:
            self.problems.append(f"instance {index}: {rec.outcome.problem}")
        first = self._first.setdefault(index, rec.outcome.fingerprint)
        if first != rec.outcome.fingerprint:
            rec.outcome.passed = False
            self.problems.append(f"instance {index}: output differs on repeat")
        return rec

    def run(self, seconds, min_slots, traced_pairs=False):
        """Cycle through the instances for ``seconds`` and at least ``min_slots`` slots.

        A slot runs one instance; with ``traced_pairs`` it runs it untraced
        and then traced, so the overhead compares like with like.
        """
        t_end = time.perf_counter() + seconds
        slot = 0
        while slot < min_slots or time.perf_counter() < t_end:
            index = slot % len(self.instances)
            self.records.append(self.attempt(index))
            if traced_pairs:
                self.records.append(self.attempt(index, traced=True))
            slot += 1
        refs = [r.ref_before for r in self.records] + [reference_seconds()]
        for rec, before, after in zip(self.records, refs, refs[1:]):
            rec.calibrated = calibrate(rec.seconds, before, after)


def calibrate(seconds, ref_before, ref_after):
    """Seconds at the nominal speed, from the reference timed on either side."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


# --------------------------------------------------------------------------
# Metrics


def tail(times):
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} ops, 10 beyond"


def mean_of_medians(records, field):
    """Median per input removes machine noise; the mean over inputs then weighs
    every seeded input once, however many times it ran."""
    by_instance = {}
    for rec in records:
        by_instance.setdefault(rec.instance, []).append(getattr(rec, field))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def per_instance(records, field):
    """Mean over instances of one deterministic outcome field (first run of each)."""
    first = {}
    for rec in records:
        if rec.outcome is not None:
            first.setdefault(rec.instance, getattr(rec.outcome, field))
    return statistics.fmean(first.values()) if first else 0.0


def end_to_end(wl, records, setup_s):
    untraced = [r for r in records if not r.traced]
    op_s = mean_of_medians(untraced, "calibrated")
    tail_s, tail_label = tail([r.calibrated for r in untraced])
    done = [r for r in untraced if r.outcome is not None]
    inputs = len({r.instance for r in untraced})
    values = {
        "setup_s": (setup_s, "s", ""),
        "op_s": (op_s, "s", f"mean over {inputs} inputs of each one's median"),
        "op_s_raw": (
            mean_of_medians(untraced, "seconds"), "s", "as op_s, uncalibrated (not gated)"
        ),
        "op_s_tail": (tail_s, "s", tail_label),
        "mpix_per_s": (wl.n * wl.n * wl.channels / op_s / 1e6, "Mpix/s", "H*W*M per op_s"),
        "inner_iters": (per_instance(done, "inner_iters"), "count", "per solve"),
        "outer_steps": (per_instance(done, "outer_steps"), "count", "per solve"),
        "final_gap": (max((r.outcome.gap for r in done), default=math.inf), "ratio", "largest"),
        "certified_frac": (
            sum(r.outcome.passed for r in done) / len(untraced), "ratio", "passed / attempted"
        ),
        "failed_frac": (
            (len(untraced) - len(done)) / len(untraced), "ratio", "raised / attempted"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"
        ),
    }
    return values


def per_layer(tracer, records, count):
    """Per-layer metrics from the traced ops; counts from the first traced pass."""
    spans = tracer.spans()
    names = np.array([fname for fname, _ in tracer.names])
    sites = np.array([f"{site}.{fname.split('.', 1)[1]}" for fname, site in tracer.names])
    func = names[spans["func"]]
    site = sites[spans["func"]]
    first_pass = spans["op"] < count
    traced = [r for r in records if r.traced]
    ops = max(len(traced), 1)

    def calls(name):
        return float(np.count_nonzero((func == name) & first_pass)) / count

    def self_s(name):
        return float(spans["self"][func == name].sum()) / ops

    def incl_s(name):
        return float(spans["dur"][func == name].sum()) / ops

    def site_calls(name):
        return float(np.count_nonzero((site == name) & first_pass))

    inner = [r for r in tracer.inner_results if r[0] < count]
    iters = sum(r[1] for r in inner)
    energy_evals = site_calls("solver.primal_energy")
    n_energy = np.count_nonzero(func == "energy.primal_energy")
    grid = np.isin(func, ["grid.gradient", "grid.divergence"])
    grid_s = float(spans["dur"][grid].sum())
    pairs = {}
    for rec in records:
        pairs.setdefault(rec.instance, {}).setdefault(rec.traced, []).append(rec.calibrated)
    ratios = [
        statistics.median(p[True]) / statistics.median(p[False]) - 1.0
        for p in pairs.values()
        if True in p and False in p
    ]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "solver.inner_iters": per_instance(traced, "inner_iters"),
        "solver.outer_steps": per_instance(traced, "outer_steps"),
        "solver.energy_evals_per_iter": ratio(energy_evals, iters),
        "solver.residual_evals_per_iter": ratio(site_calls("solver.euler_residual"), iters),
        "solver.accept_ratio": ratio(sum(r[3] for r in inner), energy_evals),
        "solver.cap_hits": sum(r[2] for r in inner) / count,
        "energy.primal_energy.us_per_call": ratio(
            float(spans["dur"][func == "energy.primal_energy"].sum()) * 1e6, n_energy
        ),
        "grid.gbytes_computed": float(spans["nbytes"][grid & first_pass].sum()) / count / 1e9,
        "grid.gb_per_s_computed": ratio(float(spans["nbytes"][grid].sum()) / 1e9, grid_s),
        "netpbm.read.s": incl_s("netpbm.read"),
        "netpbm.write.s": incl_s("netpbm.write"),
        "trace.overhead_frac": statistics.median(ratios) if ratios else 0.0,
    }
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        fname, _, stat = metric.rpartition(".")
        values[metric] = calls(fname) if stat == "calls" else self_s(fname)
    return values, spans, func


def print_hotspots(spans, func, ops, limit=12):
    """Top functions by self time, the trace's view of where an op goes."""
    totals = {}
    for name in np.unique(func):
        totals[name] = float(spans["self"][func == name].sum())
    whole = float(spans["dur"][func == "bench.op"].sum())
    print(f"  self time per op, top {limit} of {len(totals)} spans (share of traced op time):")
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:limit]:
        print(f"    {name:32s} {total / ops:10.6f} s  {100.0 * total / whole:5.1f}%")


# --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        mods, import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import viscotv from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    # Set-up is repeated and its median reported, so work moved into it shows.
    reps = []
    warm_problems = []
    ref = reference_seconds()
    import_s = calibrate(import_s, ref, ref)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        instances = make_instances(mods, args.workload, wl, args.seed)
        warmup = make_instance(
            mods, args.workload, wl, np.random.default_rng(WARMUP_SEED), "warmup"
        )
        warm_runner = Runner([warmup])
        warm = warm_runner.attempt(0)  # untimed warm-up op
        seconds = time.perf_counter() - t0 - warm.ref_before
        ref_after = reference_seconds()
        reps.append(calibrate(seconds, ref, ref_after))
        ref = ref_after
        warm_problems += [f"warm-up {p}" for p in warm_runner.problems]
    setup_s = import_s + statistics.median(reps)

    tracer = None
    if args.trace:
        tracer = Tracer(mods)
    runner = Runner(instances, tracer)
    if args.trace:
        # Counts come from one traced op on each of the first inputs.
        traced_inputs = min(len(instances), TRACE_INPUTS)
        runner.run(args.seconds, traced_inputs, traced_pairs=True)
    else:
        # One op more than there are inputs, so at least one repeat is checked.
        runner.run(args.seconds, len(instances) + 1)
    records = runner.records
    problems = list(runner.problems)
    problems += warm_problems

    attempted = len(records)
    failed = sum(bool(r.error) for r in records)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{wl.kind} on {wl.n}x{wl.n}x{wl.channels}, {len(instances)} inputs, "
        f"{attempted} ops, {failed} raised"
    )
    if args.trace:
        values, spans, func = per_layer(tracer, records, traced_inputs)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"  {name:34s} {values[name]:14.6g} {unit}")
        print_hotspots(spans, func, max(sum(r.traced for r in records), 1))
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}.npz")
    else:
        values = end_to_end(wl, records, setup_s)
        for name, (value, unit, note) in values.items():
            print(f"  {name:16s} {value:14.6g} {unit:7s} {note}")
        metrics = {
            name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END
        }
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
