"""Batch front end: netpbm ingestion, solver invocation, report/log emission.

Mask polarity: bright pixels (value > maxval // 2, i.e. >= 128 at maxval 255)
mark the damaged region, i.e. "paint the hole white".  Pixel intensities are
mapped to [0, 1] on load and quantized back with round-half-even on save,
preserving the input's format and maxval.

The report and CSV are byte-deterministic for identical inputs and seed;
wall-clock timing is therefore confined to stdout and the CSV's ``seconds``
column.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from . import netpbm
from .density import DensityParams
from .energy import ModelParams
from .grid import _ALL_DAMAGED
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
    """Read a PGM damage mask; sample > maxval // 2 means damaged (in D).

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
    mask = img.samples[:, :, 0] > img.maxval // 2
    if mask.all():
        raise ValueError(_ALL_DAMAGED)
    return mask


def save_image(path, u, magic: str, maxval: int) -> None:
    """Clamp to [0, 1], quantize with round-half-even, write with given format."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    samples = np.rint(u * maxval).astype(np.uint16)
    netpbm.write(path, netpbm.NetpbmImage(magic=magic, maxval=maxval, samples=samples))


_DEFAULT = SolverConfig()

# One row per settings flag: the flag, the DensityParams, ModelParams or
# SolverConfig field it fills, its type, default and help.  The ranges are
# those classes' own checks; each ValueError they raise starts with the field.
_SETTINGS = (
    ("--mu", "mu", float, 2.0, "ellipticity exponent"),
    ("--zeta", "zeta", float, 2.0, "fidelity exponent"),
    ("--lambda", "lam", float, 10.0, "fidelity weight"),
    ("--delta0", "delta0", float, _DEFAULT.delta0, "initial viscosity"),
    ("--delta-min", "delta_min", float, _DEFAULT.delta_min, "final viscosity"),
    ("--delta-factor", "delta_factor", float, _DEFAULT.delta_factor, "viscosity shrink factor"),
    ("--tol", "gap_tol", float, _DEFAULT.gap_tol, "relative duality-gap target"),
    ("--inner-max-iters", "inner_max_iters", int, _DEFAULT.inner_max_iters,
     "iteration cap per inner smooth solve"),
)
_FLAG_OF = {field: flag for flag, field, *_ in _SETTINGS}


def _build_parser() -> _Parser:
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
        help="damage mask PGM; bright (> maxval/2) = damaged; absent = pure denoising",
    )
    p.add_argument("--output", required=True, help="restored image path")
    for flag, field, kind, default, text in _SETTINGS:
        p.add_argument(flag, dest=field, type=kind, default=default, help=text)
    p.add_argument(
        "--seed", type=int, default=0, help="echoed in the report; the solve does not read it"
    )
    p.add_argument("--report", default=None, help="write key=value run report here")
    p.add_argument("--log-csv", dest="log_csv", default=None, help="per-outer-step CSV log")
    return p


_PARSER = _build_parser()


def _fill(cls, args, **given):
    """cls built from given and the settings fields of args that cls has."""
    for f in dataclasses.fields(cls):
        if f.name in _FLAG_OF:
            given[f.name] = getattr(args, f.name)
    return cls(**given)


def _settings(args) -> tuple[ModelParams, SolverConfig]:
    """The model and solver settings of args; a rejected value is named by its flag."""
    try:
        params = _fill(ModelParams, args, density=_fill(DensityParams, args))
        return params, _fill(SolverConfig, args)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_FLAG_OF.get(field, field)} {rest}") from None


def _fmt(value) -> str:
    """A float by its repr, None as an empty field, anything else by str."""
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


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
    ("extrapolated_gap", lambda i, rec: rec.extrapolated_gap),
    ("seconds", lambda i, rec: f"{rec.wall_seconds:.6f}"),
)


def _write_csv(path, records) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(name for name, _ in _CSV_COLUMNS) + "\n")
        for i, rec in enumerate(records, start=1):
            handle.write(",".join(_fmt(value(i, rec)) for _, value in _CSV_COLUMNS) + "\n")


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        params, cfg = _settings(args)
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
                    ("mu", params.density.mu),
                    ("zeta", params.zeta),
                    ("lambda", params.lam),
                    *dataclasses.asdict(cfg).items(),
                    ("seed", args.seed),
                    ("final_I", cert.primal_value),
                    ("dual_value", cert.dual_value),
                    ("relative_gap", cert.relative_gap),
                    ("returned_point", records[-1].better_point),
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

    converged = cert.relative_gap <= cfg.gap_tol and mp.passed
    print(
        f"viscotv: I={cert.primal_value:.9g} R_hat={cert.dual_value:.9g} "
        f"gap_rel={cert.relative_gap:.3e} max_principle="
        f"{'pass' if mp.passed else 'FAIL'} outer_steps={len(records)} "
        f"wall_seconds={wall:.3f}"
    )
    return 0 if converged else 2


def main() -> None:
    sys.exit(run())
