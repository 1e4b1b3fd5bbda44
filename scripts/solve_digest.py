#!/usr/bin/env python3
"""Print one sha256 over the solves and certificates of a viscotv checkout.

Usage (from the repository root):

    python3 scripts/solve_digest.py --src PATH

imports viscotv from PATH, the ``src`` directory of any checkout, and hashes
in this order:

* u and every ``ConvergenceRecord`` (``wall_seconds`` zeroed) of
  ``continuation`` on the 36 seed-7 ``inpaint_gray48`` inputs, on 5 inputs
  each of 32x32 inpainting at zeta = 1.5 and zeta = 3, and on 10 seed-7
  96x96x3 denoising inputs (no mask);
* the 4 seed-7 ``certify_audit_color512`` certificates;
* the ``CliInstance`` fingerprint of the first 10 seed-7
  ``denoise_color96_cli`` inputs: the output image, the report and the CSV
  without its trailing ``seconds`` column.  The report names the input
  files, which perfbench writes under this script's own checkout, so
  compare two ``--src`` directories with one copy of the script.

Inputs and settings are perfbench/run.py's instances, imported by path, so
the fixture has one source.  Two checkouts that print the same digest give
the same bits on all of these, which is how a change that should move no bit
is checked against its parent.

For each solve set it also prints a census to stderr: the mean inner
iterations per solve and the candidate evaluations per inner iteration.  The
digest stays the last line on stdout.
"""

import argparse
import hashlib
import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def load_bench():
    """perfbench/run.py as a module; it pins the BLAS threads before numpy loads."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports spans.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", required=True, help="the src directory to import viscotv from")
    args = parser.parse_args(argv)

    run = load_bench()
    import numpy as np

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"viscotv.{name}") for name in run.LAYERS}
    origin = Path(mods["solver"].__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"viscotv was imported from {origin}, not from {src}")

    solve = run.Workload
    sets = [
        ("inpaint_gray48", run.WORKLOADS["inpaint_gray48"]),
        ("inpaint_zeta15_gray32", solve("solve", 32, 1, True, 1.5, 5)),
        ("inpaint_zeta3_gray32", solve("solve", 32, 1, True, 3.0, 5)),
        ("denoise_color96", solve("solve", 96, 3, False, 2.0, 10)),
        ("certify_audit_color512", run.WORKLOADS["certify_audit_color512"]),
        ("denoise_color96_cli", replace(run.WORKLOADS["denoise_color96_cli"], instances=10)),
    ]
    digest = hashlib.sha256()
    for name, wl in sets:
        solves = iterations = evaluations = 0
        for instance in run.make_instances(mods, name, wl, SEED):
            result = instance.call()
            if wl.kind == "audit":
                digest.update(repr(result).encode())
                continue
            if wl.kind == "cli":
                digest.update(instance.check(result).fingerprint)
                continue
            u, _, records = result
            digest.update(np.ascontiguousarray(u).tobytes())
            for record in records:
                digest.update(repr(replace(record, wall_seconds=0.0)).encode())
            solves += 1
            iterations += sum(record.inner_iterations for record in records)
            evaluations += sum(record.evaluations for record in records)
        if solves:
            print(
                f"{name}: {solves} solves, {iterations / solves:.1f} inner iterations per solve, "
                f"{evaluations / iterations:.2f} evaluations per iteration",
                file=sys.stderr,
            )
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
