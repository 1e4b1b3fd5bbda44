#!/usr/bin/env python3
"""Print one sha256 over the solves and certificates of a viscotv checkout.

Usage (from the repository root):

    python3 scripts/solve_digest.py --src PATH [--expect HEX]

imports viscotv from PATH, the ``src`` directory of any checkout, and hashes
in this order:

* u and every ``ConvergenceRecord`` (``wall_seconds`` zeroed) of
  ``continuation`` on the 36 seed-7 ``inpaint_gray48`` inputs, on 5 inputs
  each of 32x32 inpainting at zeta = 1.5 and zeta = 3, on 10 seed-7
  96x96x3 denoising inputs (no mask), and on 3 seed-7 inputs of 32x32
  inpainting with the data scaled by 255 and solved at mu = 15 (lam = 10,
  zeta = 2).  That last set is the only one that reaches ``certify``'s
  rounding edge, where some ``|tau|`` rounds past cbar and tau is scaled
  back; every other set runs at mu = 2;
* the 4 seed-7 ``certify_audit_color512`` certificates;
* the ``CliInstance`` fingerprint of the first 10 seed-7
  ``denoise_color96_cli`` inputs: the output image, the report and the CSV
  without its trailing ``seconds`` column.  The report names the input
  files, so the script runs in a fresh temporary directory and points
  perfbench's ``WORK`` at the relative ``viscotv-solve-digest`` there: every
  checkout of the script prints the same digest for the same ``src``, and
  runs side by side do not share files.

Inputs and settings are perfbench/run.py's instances, imported by path, so
the fixture has one source.  Two checkouts that print the same digest give
the same bits on all of these, which is how a change that should move no bit
is checked against its parent.

For each set it also prints a census line to stderr: the mean inner
iterations and candidate evaluations per op (a solve, a CLI run or an audit
``certify`` call), the evaluations per inner iteration, the ``certify``
calls per op, the minor page faults (``ru_minflt``) of the set's ops per
inner iteration (per op for the audit), counted after one untimed call on a
solve set's first input so that the process's first touch of numpy and of
the heap is left out, and the largest relative gap an op returned.  Before
every op, that warm-up included, it runs perfbench's reference kernel
(``reference_seconds()``, untimed here), as perfbench does before each of its
ops: the ops then meet the heap perfbench leaves them, and the fault column
describes the code, not the heap history of this one process.  For the
``continuation`` sets it also counts how many solves returned the Richardson
point instead of the last iterate and how many final certificates were
scaled at the rounding edge (``dual_scale`` < 1).  A solve returned the
Richardson point when its certificate's gap differs from its last record's,
which describes the iterate; that reads 0 on a checkout without the point.
Inner iterations and evaluations are summed over the ``InnerResult`` of
every ``minimize_smooth`` call, and ``certify`` calls are counted, by
wrapping ``solver.minimize_smooth``, ``solver.certify`` and
``dual.certify``, which changes no bit.  Each line ends with the set's own
digest, the first 12 hex digits of a sha256 over that set's contributions
to the digest, so a census shows which sets a change moved, and, on every
set but the audit, its iterate digest, the same over the set's restored
images alone: u of each solve, the output file of each CLI run.  A change
that only re-rounds the reported totals moves a set digest and leaves its
iterate digest.  The digest stays the last line on stdout.

With ``--expect HEX`` the script exits 1 when the digest differs from HEX.
``scripts/solve_digest.expected`` holds the digest of the current tree, and
CI passes it: a change that moves bits updates that file and records its
census.

numpy picks its SIMD kernels by the CPU it runs on, and its AVX-512 kernels
round some results differently: on an AVX-512 host every set digest moves
with them, and on numpy 2.4.6 the mu = 15 set runs 4316.3 iterations per
solve with them against 4084.0 without.  So ``main`` turns them off (``CPU_PIN``, numpy's
``NPY_DISABLE_CPU_FEATURES``) before it loads numpy, and the expected digest
is the one of numpy 2.4.6 with that pin, the version CI installs.  A host
that lacks a listed feature only gets an ``ImportWarning`` from numpy.
Scripts that import ``load_bench`` alone keep the host's kernels.
"""

import argparse
import hashlib
import importlib
import importlib.util
import os
import resource
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7
EDGE_SET, EDGE_SCALE, EDGE_MU = "inpaint_mu15_gray32_255", 255.0, 15.0  # the rounding-edge set
CPU_PIN = ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")  # numpy's AVX-512 kernels


def load_bench():
    """perfbench/run.py as a module; it pins the BLAS threads before numpy loads."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports spans.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def load_package(src, name, layers):
    """The viscotv package under ``src`` imported as ``name``; its layers by name."""
    root = Path(src).resolve() / "viscotv"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {layer: importlib.import_module(f"{name}.{layer}") for layer in layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", required=True, help="the src directory to import viscotv from")
    parser.add_argument("--expect", help="exit 1 unless the digest is this hex string")
    args = parser.parse_args(argv)

    os.environ[CPU_PIN[0]] = CPU_PIN[1]  # read once, when numpy loads
    run = load_bench()
    import numpy as np

    mods = load_package(args.src, "viscotv", run.LAYERS)
    work = tempfile.TemporaryDirectory(prefix="viscotv-solve-digest-")  # removed at exit
    os.chdir(work.name)
    run.WORK = Path("viscotv-solve-digest")  # read by make_instance, named in the reports

    solve = run.Workload
    sets = [
        ("inpaint_gray48", run.WORKLOADS["inpaint_gray48"]),
        ("inpaint_zeta15_gray32", solve("solve", 32, 1, True, 1.5, 5)),
        ("inpaint_zeta3_gray32", solve("solve", 32, 1, True, 3.0, 5)),
        ("denoise_color96", solve("solve", 96, 3, False, 2.0, 10)),
        (EDGE_SET, solve("solve", 32, 1, True, 2.0, 3)),
        ("certify_audit_color512", run.WORKLOADS["certify_audit_color512"]),
        ("denoise_color96_cli", replace(run.WORKLOADS["denoise_color96_cli"], instances=10)),
    ]
    counts = dict.fromkeys(("certify", "iterations", "evaluations"), 0)
    certify, minimize_smooth = mods["dual"].certify, mods["solver"].minimize_smooth

    def counting_certify(*args, **kwargs):
        counts["certify"] += 1
        return certify(*args, **kwargs)

    def counting_minimize_smooth(*args, **kwargs):
        inner = minimize_smooth(*args, **kwargs)
        counts["iterations"] += inner.iterations
        counts["evaluations"] += inner.evaluations
        return inner

    mods["dual"].certify = mods["solver"].certify = counting_certify
    mods["solver"].minimize_smooth = counting_minimize_smooth

    digest = hashlib.sha256()
    for name, wl in sets:
        instances = run.make_instances(mods, name, wl, SEED)
        if name == EDGE_SET:
            for instance in instances:
                instance.f = EDGE_SCALE * instance.f
                density = mods["density"].DensityParams(EDGE_MU)
                instance.params = replace(instance.params, density=density)
        if wl.kind == "solve":
            run.reference_seconds()
            instances[0].call()  # warm-up, outside the census and the digest
        counts.update(dict.fromkeys(counts, 0))
        part, iterate = hashlib.sha256(), hashlib.sha256()
        faults = extrapolated = edge = 0
        largest_gap = 0.0
        for instance in instances:
            run.reference_seconds()  # untimed, as perfbench runs it before each op
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            result = instance.call()
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            if wl.kind == "audit":
                chunks, gap = [repr(result).encode()], result.relative_gap
            elif wl.kind == "cli":
                iterate.update(instance.output.read_bytes())  # check() deletes the file
                outcome = instance.check(result)
                chunks, gap = [outcome.fingerprint], outcome.gap
            else:
                u, cert, records = result
                chunks = [np.ascontiguousarray(u).tobytes()]
                iterate.update(chunks[0])
                chunks += [repr(replace(record, wall_seconds=0.0)).encode() for record in records]
                extrapolated += cert.relative_gap != records[-1].relative_gap
                edge += cert.dual_scale < 1.0
                gap = cert.relative_gap
            for chunk in chunks:
                digest.update(chunk)
                part.update(chunk)
            largest_gap = max(largest_gap, gap)

        ops, unit = len(instances), {"solve": "solve", "cli": "run", "audit": "call"}[wl.kind]
        iterations, evaluations = counts["iterations"], counts["evaluations"]
        census = [f"{ops} {unit}s"]
        if iterations:
            census += [
                f"{iterations / ops:.1f} inner iterations per {unit}",
                f"{evaluations / ops:.1f} candidate evaluations per {unit}",
                f"{evaluations / iterations:.2f} evaluations per iteration",
                f"{faults / iterations:.2f} minor faults per iteration",
            ]
        else:
            census.append(f"{faults / ops:.1f} minor faults per {unit}")
        census.append(f"{counts['certify'] / ops:.2f} certify calls per {unit}")
        if wl.kind == "solve":
            census += [
                f"{extrapolated} returned the Richardson point",
                f"{edge} scaled at the rounding edge",
            ]
        census += [f"largest gap {largest_gap:.2e}", f"set digest {part.hexdigest()[:12]}"]
        if wl.kind != "audit":
            census.append(f"iterate digest {iterate.hexdigest()[:12]}")
        print(f"{name}: " + ", ".join(census), file=sys.stderr)
    print(digest.hexdigest())
    if args.expect is not None and digest.hexdigest() != args.expect.strip():
        print(f"digest differs from the expected {args.expect.strip()}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
