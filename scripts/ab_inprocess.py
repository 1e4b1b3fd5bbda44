#!/usr/bin/env python3
"""In-process A/B of two viscotv checkouts on one perfbench workload.

Usage (from the repository root):

    python3 scripts/ab_inprocess.py --parent SRC --change SRC --workload NAME
        [--seed N] [--passes K]

imports the viscotv package of each ``src`` directory into this one process
under its own name (``viscotv_parent``, ``viscotv_change``) and builds
perfbench/run.py's instances of the workload for both from the same seed
(run.py is imported by path, by ``solve_digest.load_bench``).  After one
untimed warm-up pass per side, each of K passes runs every input once per
side as a pair of ops, the parent first in even pairs and the change first
in odd ones.  Both sides thus share the host's drift, the heap and the
caches, which two benchmark processes run one after the other do not.

Prints per side the median seconds and minor page faults (``ru_minflt``)
per op, then the median and interquartile range of the per-pair ratios
change/parent and in how many pairs the change was faster.  A pair whose two
outputs differ in gap is counted and printed; for the CLI workload each
side writes its files under a temporary directory of its own.

Before every op, warm-up included, it runs perfbench's reference kernel
(``reference_seconds()``, untimed here), as perfbench does before each of its
ops, so the ops meet the heap and the caches in the state perfbench leaves
them in.  The kernel's large temporaries leave the heap trimmed, and each op
first-touches fresh pages: on the parent of ``BENCH_26.json`` a
``denoise_color96_cli`` op here takes 544 minor faults with the kernel and
782 without it, and 19.4 ms against 16.0 ms.
"""

import argparse
import importlib
import importlib.util
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from solve_digest import load_bench  # scripts/ is sys.path[0] when this runs

SIDES = ("parent", "change")


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


def timed(instance, reference):
    """Seconds, minor faults and outcome of one op, run after the kernel ``reference()``."""
    reference()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    result = instance.call()
    seconds = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds, faults, instance.check(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="src directory of the parent")
    parser.add_argument("--change", required=True, help="src directory of the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=3, help="timed passes over the inputs")
    args = parser.parse_args(argv)

    run = load_bench()
    wl = run.WORKLOADS[args.workload]
    work = tempfile.TemporaryDirectory(prefix="viscotv-ab-")  # removed at exit
    instances = {}
    for side, src in zip(SIDES, (args.parent, args.change)):
        mods = load_package(src, f"viscotv_{side}", run.LAYERS)
        run.WORK = Path(work.name) / side  # read by make_instance for the CLI files
        instances[side] = run.make_instances(mods, args.workload, wl, args.seed)
        for instance in instances[side]:
            timed(instance, run.reference_seconds)  # warm-up pass

    seconds = {side: [] for side in SIDES}
    faults = {side: [] for side in SIDES}
    differ = 0
    for pair in range(args.passes * wl.instances):
        index = pair % wl.instances
        outcomes = {}
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            s, n, outcomes[side] = timed(instances[side][index], run.reference_seconds)
            seconds[side].append(s)
            faults[side].append(n)
        if outcomes["parent"].gap != outcomes["change"].gap:
            differ += 1
            print(f"input {index}: gap {outcomes['parent'].gap!r} -> {outcomes['change'].gap!r}")

    for side in SIDES:
        print(
            f"{side:6s} median {statistics.median(seconds[side]) * 1e3:9.3f} ms/op, "
            f"{statistics.median(faults[side]):8.1f} minor faults/op"
        )
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1.0 for r in ratios)
    print(
        f"change/parent per pair: median {median:.4f}, IQR {q1:.4f}-{q3:.4f}, "
        f"change faster in {wins} of {len(ratios)} pairs; {differ} pairs differ in gap"
    )


if __name__ == "__main__":
    main()
