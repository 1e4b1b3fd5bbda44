"""Minimal PGM/PPM (netpbm) reader and writer.

Supports P2/P5 (grayscale) and P3/P6 (color) with maxval up to 65535;
binary samples above 255 are two bytes, big endian.  The writer emits the
canonical single-line header ``magic\\nwidth height\\nmaxval\\n`` so that a
binary file written by this module round-trips bit for bit.

The magic number, the header fields and plain (P2/P3) samples are tokens
separated by whitespace or comments, the fields and samples ASCII decimal
digits (no sign, no underscore); a ``#`` comment runs to the end of its line
and may sit between any two tokens.  The plain raster is split into tokens
and their count and digits are checked before any sample array is
allocated, so a header claiming more samples than the file holds fails at
once.

Parse failures raise :class:`NetpbmError` carrying the byte offset at which
the problem was detected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["NetpbmError", "NetpbmImage", "read", "write"]

_MAGICS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_BINARY = {b"P5", b"P6"}


class NetpbmError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class NetpbmImage:
    magic: str  # "P2", "P3", "P5" or "P6"
    maxval: int
    samples: np.ndarray  # (height, width, channels), integer dtype

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def channels(self) -> int:
        return self.samples.shape[2]


_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")
_COMMENT = re.compile(rb"#[^\n]*")


def _next_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The decimal token after ``pos``, skipping whitespace and comments, and its end."""
    m = _TOKEN.match(data, pos)
    token = m.group(1)
    if not token:
        raise NetpbmError(f"unexpected end of file while reading {what}", m.end())
    if not token.isdigit():
        raise NetpbmError(f"expected an integer for {what}, got {token!r}", pos)
    return int(token), m.end()


def _plain_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` tokens after ``pos`` as uint16, checked before conversion."""
    # maxsplit is capped: a header may claim more samples than the file has bytes.
    tokens = _COMMENT.sub(b"", data[pos:]).split(None, min(count, len(data)))[:count]
    if len(tokens) < count:
        raise NetpbmError("unexpected end of file while reading sample", len(data))
    if not b"".join(tokens).isdigit():
        bad = next(i for i, token in enumerate(tokens) if not token.isdigit())
        start = pos
        for _ in range(bad):
            start = _TOKEN.match(data, start).end()
        raise NetpbmError(f"expected an integer for sample, got {tokens[bad]!r}", start)
    try:
        return np.array(tokens).astype(np.uint16)
    except OverflowError:  # a sample above 65535
        raise NetpbmError(f"sample exceeds maxval {maxval}", pos) from None


def read(path) -> NetpbmImage:
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 2:
        raise NetpbmError("file too short for a netpbm magic number", 0)
    magic = data[0:2]
    if magic not in _MAGICS:
        raise NetpbmError(f"unsupported magic {magic!r}", 0)
    channels = _MAGICS[magic]
    after = data[2:3]
    if after and not (after.isspace() or after == b"#"):
        raise NetpbmError("expected whitespace or a comment after the magic number", 2)

    width, pos = _next_int(data, 2, "width")
    height, pos = _next_int(data, pos, "height")
    maxval, pos = _next_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"invalid dimensions {width}x{height}", pos)
    if not 0 < maxval <= 65535:
        raise NetpbmError(f"maxval {maxval} out of range (1..65535)", pos)

    count = width * height * channels
    if magic in _BINARY:
        if not data[pos : pos + 1].isspace():
            raise NetpbmError("expected single whitespace after maxval", pos)
        pos += 1
        bytes_per = 2 if maxval > 255 else 1
        need = count * bytes_per
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise NetpbmError(
                f"truncated payload: expected {need} bytes, found {len(payload)}",
                pos + len(payload),
            )
        dtype = ">u2" if bytes_per == 2 else "u1"
        flat = np.frombuffer(payload, dtype=dtype).astype(np.uint16)
    else:
        flat = _plain_samples(data, pos, count, maxval)
    if int(flat.max(initial=0)) > maxval:
        raise NetpbmError(f"sample exceeds maxval {maxval}", pos)
    samples = flat.reshape(height, width, channels)
    return NetpbmImage(magic=magic.decode(), maxval=maxval, samples=samples)


def write(path, image: NetpbmImage) -> None:
    """Write image with the canonical header; ValueError for any image ``read`` cannot return."""
    magic = image.magic.encode()
    if magic not in _MAGICS:
        raise ValueError(f"unsupported magic {image.magic!r}")
    if not 0 < image.maxval <= 65535:
        raise ValueError(f"maxval {image.maxval} out of range (1..65535)")
    samples = np.asarray(image.samples)
    if samples.ndim != 3 or samples.shape[2] != _MAGICS[magic]:
        raise ValueError(
            f"{image.magic} expects {_MAGICS[magic]} channel(s), got shape {samples.shape}"
        )
    if 0 in samples.shape[:2]:
        raise ValueError(f"invalid dimensions {samples.shape[1]}x{samples.shape[0]}")
    if not np.issubdtype(samples.dtype, np.integer):
        raise ValueError(f"samples must have an integer dtype, got {samples.dtype}")
    if samples.min() < 0 or samples.max() > image.maxval:
        raise ValueError("samples out of range for maxval")
    header = b"%s\n%d %d\n%d\n" % (magic, samples.shape[1], samples.shape[0], image.maxval)
    with open(path, "wb") as handle:
        handle.write(header)
        if magic in _BINARY:
            dtype = ">u2" if image.maxval > 255 else "u1"
            handle.write(samples.astype(dtype).tobytes())
        else:
            np.savetxt(handle, samples.reshape(samples.shape[0], -1), fmt="%d")
