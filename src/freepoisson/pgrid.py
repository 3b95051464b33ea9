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
by raw 8-byte values.  Unknown or repeated header keys are rejected.

Text values are written exactly as ``"%.17g\\n" % v`` prints them, so they
read back bit for bit.  The writer makes those bytes with array operations,
one chunk of values at a time, in cell buffers allocated once per call; the
solve command's CSV node table uses the same engine for its ``"%.16e"``
cells.  A binary body is written from the values' own buffer.

The reader holds one array of values: it parses a text body a chunk of
bytes at a time straight into that array, and reads a binary body into it.
Each chunk is scanned as a byte array for tokens that are a lone ``0``,
such as a density's zero collar: they are stored as +0.0 by one masked
assignment and blanked out, so only the other tokens become Python objects
for ``np.array`` to convert.  A chunk without one is converted whole.

Each value is taken to 17 correctly rounded significant digits D and a
decimal exponent E, |v| ~ D * 10**(E - 16).  E is first estimated as
floor(log10|v|), and s = |v| * 10**k with k = 16 - E is formed as a
double-double.  With u = 2**-53 the error terms are:

* ``hi + lo`` is 10**k rounded to double-double (from exact ``Fraction``s),
  so |10**k - hi - lo| <= u|lo| <= u**2 * 10**k;
* |v| * hi = p + err exactly, by Dekker's split product, which needs no
  fused multiply-add;
* fl(|v| * lo) is off by at most u**2 * s, and t = fl(err + fl(|v| * lo))
  by at most 2u**2 * s more, since both terms are below u * s;
* p - floor(p) is exact, and adding t (|t| <= 2u * s < 23) costs at most
  32u.

So the fractional part of s is known to within 4u**2 * s + 32u < 1e-14 for
s < 10**17.  D is s rounded to nearest; a round-up to 10**17 moves E up by
one.  The rounding is exact unless s lies within 1e-14 of a tie or of 10**16
or 10**17.  Such values fall back to Python's ``%``, with a wide margin: any
s within 1e-6 of those points.  So do the rare values whose s lies outside
[10**16, 10**17) because log10 put E one off (|v| within a few ulps of a
power of ten), zeros, non-finite values and |v| outside [1e-200, 1e200];
inside that range the power table and the split neither overflow nor lose
bits to subnormals.

Each fallback value is formatted on its own.  All other cells are built as
four 8-byte words per value: the digits, shifted around the decimal point
or the leading zeros, and the sign, point and exponent, all looked up per
layout of the ``%g`` rules.  A byte mask then drops the unused bytes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .errors import PGridFormatError, ShapeError
from .grid import GridFunction, UniformGrid

__all__ = ["atomic_open", "read_pgrid", "write_nodes_csv", "write_pgrid"]

_MAGIC = "PGRID 1"
_ORDER_LINE = "order x y z row-major"
_DATA_TEXT = "data text"
_DATA_BINARY = "data binary little-endian f64"
_TEXT_CHUNK = 8192  # values per array pass: its temporaries stay in a 2 MiB L2 cache
_READ_CHUNK = 1 << 15  # text bytes parsed at a time

_SAFE = (1e-200, 1e200)  # |v| formatted by array operations
_E_RANGE = (-201, 200)  # exponent estimates for |v| in _SAFE
_MARGIN = 1e-6  # distance of s from a tie or a decade that falls back
_BODY = 24  # cell bytes before the tail (exponent and terminator), 8 more after it


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


def _split(a):
    """Dekker's split: a = hi + lo with 26 significant bits in each part."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """10**(16 - E) for E in _E_RANGE as hi, hi's Dekker halves, and lo."""
    exact = [Fraction(10) ** (16 - e) for e in range(_E_RANGE[0], _E_RANGE[1] + 1)]
    hi = np.array([float(x) for x in exact])
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())])
    return (hi, *_split(hi), lo)


def _scaled(a, e):
    """s = a * 10**(16 - e) as an integer part and a fraction in [0, 1)."""
    hi, hi_hi, hi_lo, lo = (t[e - _E_RANGE[0]] for t in _powers())
    p = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    whole = np.floor(p)
    frac = (p - whole) + (err + a * lo)
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _decimal(values):
    """17 significant digits D and exponent E of each value, and where the
    array path cannot be trusted (see the module docstring)."""
    a = np.abs(values)
    safe = (a >= _SAFE[0]) & (a <= _SAFE[1])
    a[~safe] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e)
    fallback = (
        ~safe | (np.abs(frac - 0.5) < _MARGIN) | (whole < 10**16) | (whole >= 10**17)
        | (whole == 10**16) & (frac < _MARGIN)
        | (whole == 10**17 - 1) & (frac > 1 - _MARGIN)
    )
    digits = whole + (frac > 0.5)
    decade = digits == 10**17
    digits[decade] = 10**16
    return digits, e + decade, fallback


def _divmod(x, d: int):
    """``divmod`` of an integer array, without numpy's slower remainder."""
    q = x // d
    return q, x - q * d


@functools.cache
def _quads():
    """0 ... 9999 as 4 ASCII digits in a little-endian word, and their
    trailing zero digits (4 for 0)."""
    n = np.arange(10000)
    ascii_ = (n[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zeros = sum((n % 10**k == 0).astype(np.int64) for k in range(1, 5))
    return ascii_.view("<u4").ravel().astype(np.uint64), zeros


@functools.cache
def _layouts():
    """The cell layout of each (sign, form), indexed by sign * 23 + form.

    Forms 0-20 are fixed point for E = -4 ... 16, 21 and 22 scientific with
    a 2- and a 3-digit exponent.  The body of a cell is the sign, the first
    ``cut`` digits, a filler and the remaining significant digits: the
    filler is '.' after E + 1 digits (fixed, E >= 0) or after one
    (scientific), and '0.' with -E - 1 zeros before all digits (fixed,
    E < 0).  Returns the shifts in bits that place the digits before and
    after the filler, the 3-word masks of the digits before it, the sign and
    filler as 3 words, and the body length at index kind * 18 + number of
    significant digits.
    """
    shifts = np.zeros((2, 46), dtype=np.uint64)
    heads = np.zeros((46, _BODY), dtype=np.uint8)
    fills = np.zeros((46, _BODY), dtype=np.uint8)
    body = np.zeros((46, 18), dtype=np.int64)
    for neg, form in itertools.product(range(2), range(23)):
        k = neg * 23 + form
        e = form - 4
        cut, filler = (e + 1, b".") if e >= 0 else (0, b"0." + b"0" * (-e - 1))
        if form > 20:
            cut, filler = 1, b"."
        shifts[:, k] = 8 * neg, 8 * (neg + len(filler))
        heads[k, :cut] = 0xFF
        fills[k, :neg] = ord("-")
        fills[k, neg + cut:neg + cut + len(filler)] = np.frombuffer(filler, dtype=np.uint8)
        body[k, 1:] = [neg + (len(filler) + n if n > cut else cut) for n in range(1, 18)]
    return (*shifts, heads.view("<u8").T.copy(), fills.view("<u8").T.copy(), body.ravel())


@functools.cache
def _tails(end: bytes):
    """Cell tails as words and their lengths: ``end`` alone at index 0, then
    'e', sign, exponent digits and ``end`` for E = _E_RANGE[0] ... _E_RANGE[1] + 1."""
    text = [end] + [f"e{e:+03d}".encode("ascii") + end
                    for e in range(_E_RANGE[0], _E_RANGE[1] + 2)]
    return (np.array([int.from_bytes(t, "little") for t in text], dtype=np.uint64),
            np.array([len(t) for t in text]))


@functools.cache
def _keeps():
    """Byte masks of a cell row as words: the body's 3 words by body length,
    and the tail word by tail length."""
    body = np.arange(_BODY) < np.arange(_BODY + 1)[:, None]
    tail = np.arange(8) < np.arange(8)[:, None]
    return body.view("<u8").T.copy(), tail.view("<u8").ravel()


def _cells(values: np.ndarray, scientific: bool, end: bytes, cells, keep) -> None:
    """Cells ``"%.17g" % v + end`` (``"%.16e"`` if scientific) of float64 values.

    Writes each value's cell into its row of ``cells``, (n, 4) words in
    text order, and into ``keep`` the byte mask that keeps it: the body
    from byte 0 and the tail (exponent, ``end``) from byte 24.
    """
    digits, e, fallback = _decimal(values)
    quad, zeros = _quads()
    high, low = _divmod(digits, 10**8)
    lead, high = _divmod(high, 10**8)
    q = [*_divmod(high, 10**4), *_divmod(low, 10**4)]  # the other 16 digits, by 4
    w = [quad[i] for i in q]
    digit_words = [(lead + ord("0")).astype(np.uint64) | w[0] << 8 | w[1] << 40,
                   w[1] >> 24 | w[2] << 8 | w[3] << 40,
                   w[3] >> 24]
    del digits, high, low, lead, w  # a chunk's temporaries stay few
    form = 21 + (np.abs(e) >= 100)
    if scientific:
        significant = 17
    else:
        z = [zeros[i] for i in q]
        significant = 17 - z[3] - (q[3] == 0) * (z[2] + (q[2] == 0) * (z[1] + (q[1] == 0) * z[0]))
        form = np.where((e >= -4) & (e < 17), e + 4, form)
        del z
    del q
    kind = np.signbit(values) * 23 + form
    before, after, heads, fills, body = _layouts()
    before, after = before[kind], after[kind]
    tails, tail_sizes = _tails(end)
    tail = (form > 20) * (e - _E_RANGE[0] + 1)
    body_words, tail_words = _keeps()

    carry = 0
    for k, word in enumerate(digit_words):
        head = word & heads[k][kind]
        rest = word ^ head
        cells[:, k] = (head << before) | (rest << after) | carry | fills[k][kind]
        carry = (head >> (64 - before)) | (rest >> (64 - after))  # numpy: >> 64 gives 0
    cells[:, -1] = tails[tail]
    size = body[kind * 18 + significant]
    tail_size = tail_sizes[tail]

    rows = np.flatnonzero(fallback)
    if rows.size:
        bits, inverse = np.unique(values[rows].view(np.int64), return_inverse=True)
        spec = "%.16e" if scientific else "%.17g"
        text = [(spec % v).encode("ascii") for v in bits.view(np.float64).tolist()]
        cells.view(np.uint8)[rows, :_BODY] = (
            np.array(text, dtype=f"S{_BODY}").view(np.uint8).reshape(-1, _BODY)[inverse])
        cells[rows, -1] = tails[0]
        size[rows] = np.array([len(t) for t in text])[inverse]
        tail_size[rows] = len(end)
    for k in range(_BODY // 8):
        keep[:, k] = body_words[k][size]
    keep[:, -1] = tail_words[tail_size]


def _write_rows(fh, chunks, width: int) -> None:
    """Write rows of ``width`` text cells, one chunk of rows at a time.

    ``chunks`` yields each chunk's columns as ``(values, scientific, end)``
    of ``_cells``.  The cell words, their masks and the chunk's bytes live
    in buffers allocated once per call.  ``np.compress`` gathers the kept
    bytes through an index array, 8 bytes per byte kept; freeing the first
    one raises glibc's dynamic mmap and trim thresholds above a chunk's
    temporaries, so later chunks reuse heap pages instead of trimming and
    refaulting them (a test counts the page faults).
    """
    cells = np.empty((_TEXT_CHUNK, 4 * width), dtype="<u8")
    keep = np.empty_like(cells)
    text = np.empty(cells.nbytes, dtype=np.uint8)
    for columns in chunks:
        n = columns[0][0].size
        for c, column in enumerate(columns):
            _cells(*column, cells[:n, 4 * c:4 * c + 4], keep[:n, 4 * c:4 * c + 4])
        mask = keep[:n].view(bool).ravel()
        size = np.count_nonzero(mask)
        np.compress(mask, cells[:n].view(np.uint8).ravel(), out=text[:size])
        fh.write(text[:size])


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
            fh.write(flat)
        else:
            _write_rows(fh, ([(flat[lo:lo + _TEXT_CHUNK], False, b"\n")]
                             for lo in range(0, flat.size, _TEXT_CHUNK)), 1)


def write_nodes_csv(path, f: GridFunction) -> None:
    """Write one CSV row ``x[,y[,z]],phi`` per node atomically, in storage order.

    Every cell is ``f"{v:.16e}"``; rows are formatted a chunk at a time.
    """
    grid = f.grid
    axes = [grid.axis_coordinates(s) for s in range(grid.dim)]
    flat = np.ascontiguousarray(f.values, dtype=np.float64).ravel()
    ends = [b","] * grid.dim + [b"\n"]

    def chunks():
        for lo in range(0, flat.size, _TEXT_CHUNK):
            chunk = flat[lo:lo + _TEXT_CHUNK]
            index = np.unravel_index(np.arange(lo, lo + chunk.size), grid.shape)
            columns = [axis[i] for axis, i in zip(axes, index)] + [chunk]
            yield [(c, True, end) for c, end in zip(columns, ends)]

    with atomic_open(path, ".csv-") as fh:
        fh.write((",".join("xyz"[: grid.dim]) + ",phi\n").encode("ascii"))
        _write_rows(fh, chunks(), grid.dim + 1)


def read_pgrid(path) -> GridFunction:
    """Read a PGRID v1 file back into a GridFunction."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != _MAGIC:
            raise PGridFormatError(f"not a PGRID v1 file (first line {magic!r})")
        header = {}  # key -> its line
        numbers = {}  # dim, bounds, panels -> their values
        mode = None
        while True:
            raw = fh.readline()
            if not raw:
                raise PGridFormatError("header ended before a data line")
            line = raw.decode("ascii", errors="replace").rstrip("\n")
            key = line.split(" ", 1)[0]
            if key in header:
                raise PGridFormatError(f"header key {key!r} appears twice")
            header[key] = line
            if key in ("dim", "bounds", "panels"):
                kind = float if key == "bounds" else int
                try:
                    numbers[key] = [kind(v) for v in line.split()[1:]]
                except ValueError:
                    raise PGridFormatError(f"malformed header line {line!r}") from None
            elif key == "order":
                if line != _ORDER_LINE:
                    raise PGridFormatError(f"unsupported order line {line!r}")
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
        if len(numbers) < 3 or "order" not in header:
            raise PGridFormatError("header is missing dim, bounds, panels or order")
        if numbers["dim"] not in ([1], [2], [3]):
            raise PGridFormatError(f"malformed header line {header['dim']!r}")
        (dim,), bounds, panels = numbers["dim"], numbers["bounds"], numbers["panels"]
        if len(bounds) != 2 * dim or len(panels) != dim:
            raise PGridFormatError("bounds/panels length does not match dim")
        try:
            grid = UniformGrid(bounds[0::2], bounds[1::2], panels)
        except ShapeError as exc:
            raise PGridFormatError(
                f"header lines {header['bounds']!r} and {header['panels']!r} "
                f"do not describe a grid: {exc}"
            ) from None
        values = np.empty(int(np.prod(grid.shape)))
        (_read_binary if mode == "binary" else _read_text)(fh, values)
        return GridFunction(grid, values.reshape(grid.shape))


def _read_binary(fh, values: np.ndarray) -> None:
    """Read the rest of ``fh``, little-endian f64, into ``values`` in place."""
    view = memoryview(values).cast("B")
    filled = 0
    while filled < view.nbytes:
        n = fh.readinto(view[filled:])
        if not n:
            raise PGridFormatError(f"expected {values.size} binary values, file truncated")
        filled += n
    if fh.read(1):
        raise PGridFormatError(f"bytes follow the last of {values.size} binary values")
    if sys.byteorder == "big":
        values.byteswap(inplace=True)


def _read_text(fh, values: np.ndarray) -> None:
    """Parse the rest of ``fh``, whitespace-separated tokens, into ``values``.

    The text is parsed ``_READ_CHUNK`` bytes at a time (module docstring);
    a token cut by a chunk's end is carried into the next one.  The errors
    are those of a parse of the whole text at once: a wrong token count
    first, then the first token that is not a number, by its index.
    """
    found = 0
    bad = None  # (index, token) of the first token that is not a number
    carry = b""
    while True:
        block = fh.read(_READ_CHUNK)
        text, carry = carry + block, b""
        if block and not block[-1:].isspace():  # its last token may go on
            *head, carry = text.rsplit(None, 1)
            text = head[0] if head else b""
        byte = np.frombuffer(text, dtype=np.uint8)
        space = (byte == 32) | (byte - 9 < 5)  # bytes.split()'s blanks: space, \t \n \v \f \r
        lone = byte == 48  # a '0' with a blank or an end on each side
        lone[1:] &= space[:-1]
        lone[:-1] &= space[1:]
        zero = None  # which tokens are a lone '0', if any is
        if lone.any():
            starts = ~space  # a token starts after a blank or at the text's start
            starts[1:] &= space[:-1]
            zero = lone[np.flatnonzero(starts)]
            text = (byte - np.uint8(16) * lone).tobytes()  # each lone '0' (48) a ' ' (32)
            del starts
        del byte, space, lone  # before the tokens are made
        tokens = text.split()
        count = len(tokens) if zero is None else zero.size
        if bad is None and found + count <= values.size:
            out = values[found:found + count]
            rest = slice(None) if zero is None else ~zero
            try:
                out[rest] = np.array(tokens, dtype=np.float64)
            except ValueError:
                index = np.arange(found, found + count)[rest].tolist()
                bad = next(((i, t) for i, t in zip(index, tokens) if not _is_number(t)), None)
                if bad is None:
                    raise
            if zero is not None:
                out[zero] = 0.0
        found += count
        del text, tokens  # before the next chunk's are made
        if not block:
            break
    if found != values.size:
        raise PGridFormatError(f"expected {values.size} values, found {found}")
    if bad is not None:
        raise PGridFormatError(
            f"value {bad[0]} is not a number: {bad[1].decode(errors='replace')!r}"
        )


def _is_number(token: bytes | str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
