"""Batch front end: netpbm ingestion, solver invocation, report/log emission.

Mask polarity: bright pixels (value >= 128) mark the damaged region, i.e.
"paint the hole white".  Pixel intensities are mapped to [0, 1] on load and
quantized back with round-half-even on save, preserving the input's format
and maxval.

The report and CSV are byte-deterministic for identical inputs and seed;
wall-clock timing is therefore confined to stdout and the CSV's ``seconds``
column.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import netpbm
from .density import DensityParams
from .energy import ModelParams
from .grid import validate_mask
from .solver import SolverConfig, check_max_principle, continuation

__all__ = ["load_image", "load_mask", "save_image", "run", "main"]


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _intensities(img: netpbm.NetpbmImage) -> np.ndarray:
    """The samples of img as an (H, W, M) field with intensities in [0, 1]."""
    return img.samples.astype(float) / img.maxval


def load_image(path) -> np.ndarray:
    """Read a PGM/PPM file as an (H, W, M) field with intensities in [0, 1]."""
    return _intensities(netpbm.read(path))


def load_mask(path, image_shape) -> np.ndarray:
    """Read a PGM damage mask; sample >= 128 means damaged (in D).

    Rejects masks whose dimensions disagree with the image and masks that
    damage every pixel.
    """
    img = netpbm.read(path)
    if img.channels != 1:
        raise ValueError(f"mask must be grayscale PGM, got {img.magic}")
    if (img.height, img.width) != tuple(image_shape[:2]):
        raise ValueError(
            f"mask is {img.width}x{img.height} but image is "
            f"{image_shape[1]}x{image_shape[0]}"
        )
    return validate_mask(img.samples[:, :, 0] >= 128)


def save_image(path, u, magic: str, maxval: int) -> None:
    """Clamp to [0, 1], quantize with round-half-even, write with given format."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    samples = np.rint(u * maxval).astype(np.uint16)
    netpbm.write(path, netpbm.NetpbmImage(magic=magic, maxval=maxval, samples=samples))


def _build_parser() -> _Parser:
    defaults = SolverConfig()
    p = _Parser(
        prog="viscotv",
        description=(
            "Certified inpainting/denoising: smooth linear-growth TV surrogate, "
            "vanishing-viscosity continuation, duality-gap certificate."
        ),
    )
    p.add_argument("--input", required=True, help="input PGM (P2/P5) or PPM (P3/P6)")
    p.add_argument(
        "--mask",
        default=None,
        help="damage mask PGM; bright (>=128) = damaged; absent = pure denoising",
    )
    p.add_argument("--output", required=True, help="restored image path")
    p.add_argument("--mu", type=float, default=2.0, help="ellipticity exponent (> 1)")
    p.add_argument("--zeta", type=float, default=2.0, help="fidelity exponent (> 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0, help="fidelity weight")
    p.add_argument("--delta0", type=float, default=defaults.delta0, help="initial viscosity")
    p.add_argument(
        "--delta-min", type=float, default=defaults.delta_min, help="final viscosity"
    )
    p.add_argument(
        "--delta-factor",
        type=float,
        default=defaults.delta_factor,
        help="viscosity shrink factor",
    )
    p.add_argument(
        "--tol", type=float, default=defaults.gap_tol, help="relative duality-gap target"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="echoed in the report; the solve does not read it"
    )
    p.add_argument("--report", default=None, help="write key=value run report here")
    p.add_argument("--log-csv", dest="log_csv", default=None, help="per-outer-step CSV log")
    p.add_argument(
        "--inner-max-iters",
        dest="inner_max_iters",
        type=int,
        default=defaults.inner_max_iters,
        help="iteration cap per inner smooth solve",
    )
    return p


def _validate(args):
    if not args.mu > 1.0:
        raise ValueError(f"--mu must be > 1, got {args.mu}")
    if not args.zeta > 1.0:
        raise ValueError(f"--zeta must be > 1, got {args.zeta}")
    if not args.lam > 0.0:
        raise ValueError(f"--lambda must be > 0, got {args.lam}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report(path, pairs) -> None:
    with open(path, "w", newline="\n") as handle:
        for key, value in pairs:
            handle.write(f"{key}={_fmt(value)}\n")


# The CSV's columns in order: header name and value of outer step i's record.
_CSV_COLUMNS = (
    ("outer_iter", lambda i, rec: i),
    ("delta", lambda i, rec: rec.delta),
    ("inner_iters", lambda i, rec: rec.inner_iterations),
    ("I_delta", lambda i, rec: rec.I_delta_value),
    ("I", lambda i, rec: rec.I_value),
    ("R_hat", lambda i, rec: rec.dual_value),
    ("gap_rel", lambda i, rec: rec.relative_gap),
    ("grad_inf_norm", lambda i, rec: rec.residual_inf_norm),
    ("max_abs_u", lambda i, rec: rec.max_abs_u),
    ("stop_reason", lambda i, rec: rec.stop_reason),
    ("evaluations", lambda i, rec: rec.evaluations),
    ("seconds", lambda i, rec: f"{rec.wall_seconds:.6f}"),
)


def _write_csv(path, records) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(name for name, _ in _CSV_COLUMNS) + "\n")
        for i, rec in enumerate(records, start=1):
            handle.write(",".join(_fmt(value(i, rec)) for _, value in _CSV_COLUMNS) + "\n")


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        params = ModelParams(
            lam=args.lam,
            zeta=args.zeta,
            density=DensityParams(mu=args.mu),
        )
        cfg = SolverConfig(
            delta0=args.delta0,
            delta_min=args.delta_min,
            delta_factor=args.delta_factor,
            inner_max_iters=args.inner_max_iters,
            gap_tol=args.tol,
        )
        source = netpbm.read(args.input)
        f = _intensities(source)
        if args.mask is not None:
            mask = load_mask(args.mask, f.shape)
        else:
            mask = np.zeros(f.shape[:2], dtype=bool)
    except (_ArgumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        u, cert, records = continuation(f, mask, params, cfg)
    except Exception as exc:  # a defect: every validated solve ends in a certificate
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    mp = check_max_principle(u, f, mask)

    try:
        save_image(args.output, u, source.magic, source.maxval)
        if args.report:
            _write_report(
                args.report,
                [
                    ("input", args.input),
                    ("mask", args.mask if args.mask is not None else "none"),
                    ("output", args.output),
                    ("mu", args.mu),
                    ("zeta", args.zeta),
                    ("lambda", args.lam),
                    ("delta0", cfg.delta0),
                    ("delta_min", cfg.delta_min),
                    ("delta_factor", cfg.delta_factor),
                    ("inner_tol", cfg.inner_tol),
                    ("inner_max_iters", cfg.inner_max_iters),
                    ("gap_tol", cfg.gap_tol),
                    ("seed", args.seed),
                    ("final_I", cert.primal_value),
                    ("dual_value", cert.dual_value),
                    ("relative_gap", cert.relative_gap),
                    ("max_principle_pass", "true" if mp.passed else "false"),
                    ("max_principle_margin", mp.margin),
                    ("outer_steps", len(records)),
                    ("total_inner_iterations", sum(r.inner_iterations for r in records)),
                    ("inner_cap_hits", sum(r.stop_reason == "cap" for r in records)),
                ],
            )
        if args.log_csv:
            _write_csv(args.log_csv, records)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    converged = cert.relative_gap <= args.tol and mp.passed
    print(
        f"viscotv: I={cert.primal_value:.9g} R_hat={cert.dual_value:.9g} "
        f"gap_rel={cert.relative_gap:.3e} max_principle="
        f"{'pass' if mp.passed else 'FAIL'} outer_steps={len(records)} "
        f"wall_seconds={wall:.3f}"
    )
    return 0 if converged else 2


def main() -> None:
    sys.exit(run())
