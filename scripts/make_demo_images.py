#!/usr/bin/env python3
"""Generate small demo inputs (PGM) for the command-line solver.

Writes a checkerboard with a damaged block, a linear ramp with scattered
damage, and a noisy constant patch into ./demo (or the given directory).
"""

import argparse
import pathlib

import numpy as np

from viscotv.cli import save_image


def save_pgm(path, values01):
    save_image(path, values01[:, :, None], "P5", 255)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = args.size
    rng = np.random.default_rng(args.seed)

    yy, xx = np.indices((n, n))
    save_pgm(out / "board.pgm", ((yy + xx) % 2).astype(float))
    block = np.zeros((n, n))
    lo, hi = 3 * n // 8, 5 * n // 8
    block[lo:hi, lo:hi] = 1.0
    save_pgm(out / "board_mask.pgm", block)

    save_pgm(out / "ramp.pgm", xx / (n - 1))
    scatter = (rng.uniform(size=(n, n)) < 0.25).astype(float)
    scatter[0, 0] = 0.0
    save_pgm(out / "ramp_mask.pgm", scatter)

    save_pgm(out / "noisy.pgm", np.clip(0.5 + 0.15 * rng.normal(size=(n, n)), 0, 1))

    for name in ("board", "ramp", "noisy"):
        print(out / f"{name}.pgm")
    print(f"masks: {out}/board_mask.pgm {out}/ramp_mask.pgm (bright = damaged)")


if __name__ == "__main__":
    main()
