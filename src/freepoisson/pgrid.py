"""Reader and writer for the PGRID v1 grid-function file format.

The format is a short text header followed by node values in storage order
(C order, x slowest)::

    PGRID 1
    dim 2
    bounds -1 1 -1 1
    panels 20 20
    order x y z row-major
    data text

followed by one value per line, or ``data binary little-endian f64`` followed
by raw 8-byte values.  Unknown header keys are rejected.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np

from .errors import PGridFormatError
from .grid import GridFunction, UniformGrid

__all__ = ["atomic_open", "read_pgrid", "write_pgrid"]

_MAGIC = "PGRID 1"
_ORDER_LINE = "order x y z row-major"
_DATA_TEXT = "data text"
_DATA_BINARY = "data binary little-endian f64"
_TEXT_CHUNK = 65536  # values formatted per % operation in text mode


@contextlib.contextmanager
def atomic_open(path, prefix: str):
    """Binary handle on a temp file beside ``path``, renamed to it only on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgrid(path, f: GridFunction, binary: bool = False) -> None:
    """Write a grid function to ``path`` atomically (temp file + rename)."""
    grid = f.grid
    header = [
        _MAGIC,
        f"dim {grid.dim}",
        "bounds " + " ".join(
            f"{a:.17g} {b:.17g}" for a, b in zip(grid.lower, grid.upper)
        ),
        "panels " + " ".join(str(m) for m in grid.panels),
        _ORDER_LINE,
        _DATA_BINARY if binary else _DATA_TEXT,
    ]
    with atomic_open(path, ".pgrid-") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        flat = np.ascontiguousarray(f.values, dtype="<f8").ravel()
        if binary:
            fh.write(flat.tobytes())
        else:
            for lo in range(0, flat.size, _TEXT_CHUNK):
                chunk = tuple(flat[lo:lo + _TEXT_CHUNK].tolist())
                fh.write((("%.17g\n" * len(chunk)) % chunk).encode("ascii"))


def read_pgrid(path) -> GridFunction:
    """Read a PGRID v1 file back into a GridFunction."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii").rstrip("\n")
        if magic != _MAGIC:
            raise PGridFormatError(f"not a PGRID v1 file (first line {magic!r})")
        dim = None
        bounds = None
        panels = None
        order_seen = False
        mode = None
        while True:
            raw = fh.readline()
            if not raw:
                raise PGridFormatError("header ended before a data line")
            line = raw.decode("ascii").rstrip("\n")
            key = line.split(" ", 1)[0]
            if key == "dim":
                dim = int(line.split()[1])
            elif key == "bounds":
                bounds = [float(v) for v in line.split()[1:]]
            elif key == "panels":
                panels = [int(v) for v in line.split()[1:]]
            elif key == "order":
                if line != _ORDER_LINE:
                    raise PGridFormatError(f"unsupported order line {line!r}")
                order_seen = True
            elif key == "data":
                if line == _DATA_TEXT:
                    mode = "text"
                elif line == _DATA_BINARY:
                    mode = "binary"
                else:
                    raise PGridFormatError(f"unsupported data line {line!r}")
                break
            else:
                raise PGridFormatError(f"unknown header key {key!r}")
        if dim is None or bounds is None or panels is None or not order_seen:
            raise PGridFormatError("header is missing dim, bounds, panels or order")
        if len(bounds) != 2 * dim or len(panels) != dim:
            raise PGridFormatError("bounds/panels length does not match dim")
        grid = UniformGrid(bounds[0::2], bounds[1::2], panels)
        count = int(np.prod(grid.shape))
        if mode == "binary":
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise PGridFormatError(
                    f"expected {count} binary values, file truncated"
                )
            values = np.frombuffer(buf, dtype="<f8").astype(np.float64)
        else:
            text = fh.read().decode("ascii").split()
            if len(text) != count:
                raise PGridFormatError(
                    f"expected {count} values, found {len(text)}"
                )
            values = np.array([float(v) for v in text])
        return GridFunction(grid, values.reshape(grid.shape))
