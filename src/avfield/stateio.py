"""Binary wavefunction snapshots.

Layout, all little-endian: magic b"AFGS", u32 version (currently 1),
u64 n, f64 half-width L, f64 beta, f64 R, then n*n complex samples as
(re, im) f64 pairs in row-major order with x fastest.  The format is
deliberately trivial so any language can parse it; round trips are
bit-exact, and a payload with a NaN or infinite sample is rejected on
load.  Writes go through a temp file in the same directory followed
by an atomic rename.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError
from .grid import GridSpec, WaveFunction

MAGIC = b"AFGS"
VERSION = 1
_HEADER = struct.Struct("<4sIQddd")


@dataclass(frozen=True)
class StateHeader:
    n: int
    half_width: float
    beta: float
    R: float


def save_state(path: str | Path, u: WaveFunction, beta: float, R: float) -> None:
    """Write u and its defining parameters atomically."""
    path = Path(path)
    spec = u.grid
    header = _HEADER.pack(MAGIC, VERSION, spec.n, spec.half_width, beta, R)
    # no copy of a C-ordered state on a little-endian host
    payload = np.ascontiguousarray(u.values, dtype="<c16")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload.data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_header(path: str | Path, raw: bytes) -> StateHeader:
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, n, L, beta, R = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    return StateHeader(n=int(n), half_width=L, beta=beta, R=R)


def load_state(
    path: str | Path, expected: GridSpec | None = None
) -> tuple[WaveFunction, StateHeader]:
    """Load a snapshot; a mismatched expected grid is rejected, not resampled.

    A header whose grid ``GridSpec`` refuses, or a payload with a NaN or
    infinite sample, raises ``FormatError``.
    """
    with open(path, "rb") as fh:
        header = _parse_header(path, fh.read(_HEADER.size))
        raw = fh.read()
    count = header.n * header.n
    if len(raw) != count * 16:
        raise FormatError(f"{path}: payload holds {len(raw)} bytes, expected {count * 16}")
    vals = np.frombuffer(raw, dtype="<c16")  # WaveFunction makes it native complex
    try:
        spec = GridSpec(n=header.n, half_width=header.half_width)
    except DomainError as exc:
        raise FormatError(f"{path}: header grid refused: {exc}") from exc
    if expected is not None and (
        expected.n != spec.n or expected.half_width != spec.half_width
    ):
        raise FormatError(
            f"{path}: grid {spec.n}x{spec.n} on [-{spec.half_width}, "
            f"{spec.half_width}) does not match the requested grid"
        )
    try:
        u = WaveFunction(spec, vals.reshape(spec.n, spec.n))
    except DomainError as exc:
        raise FormatError(f"{path}: payload holds non-finite samples") from exc
    return u, header
