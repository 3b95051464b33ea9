import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freepoisson.pgrid
from freepoisson import (
    GridFunction,
    PGridFormatError,
    PolyBump,
    UniformGrid,
    read_pgrid,
    write_pgrid,
)
from oracles import src_env, zero_function


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_roundtrip(tmp_path, binary, dim):
    rng = np.random.default_rng(dim)
    g = UniformGrid([-1.0] * dim, [1.5] * dim, [4, 5, 6][:dim])
    f = GridFunction(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.pgrid"
    write_pgrid(path, f, binary=binary)
    back = read_pgrid(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_rejects_unknown_header_key(tmp_path):
    path = tmp_path / "bad.pgrid"
    path.write_text(
        "PGRID 1\ndim 1\nbounds 0 1\npanels 2\norder x y z row-major\n"
        "flavor vanilla\ndata text\n0\n0\n0\n"
    )
    with pytest.raises(PGridFormatError, match="unknown header key"):
        read_pgrid(path)


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgrid"
    path.write_text("PGRID 2\n")
    with pytest.raises(PGridFormatError):
        read_pgrid(path)


def test_rejects_truncated_data(tmp_path):
    path = tmp_path / "short.pgrid"
    path.write_text(
        "PGRID 1\ndim 1\nbounds 0 1\npanels 2\norder x y z row-major\n"
        "data text\n1.0\n2.0\n"
    )
    with pytest.raises(PGridFormatError, match="expected 3 values"):
        read_pgrid(path)


def test_no_partial_file_on_error(tmp_path):
    # writing into a missing directory fails before the target appears
    target = tmp_path / "nodir" / "f.pgrid"
    g = UniformGrid([0], [1], [2])
    with pytest.raises(OSError):
        write_pgrid(target, zero_function(g))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_text_values_preserve_precision(tmp_path):
    g = UniformGrid([0], [1], [3])
    f = GridFunction(g, [1 / 3, np.pi, -2.5000000000000004e-13, 0.1])
    path = tmp_path / "prec.pgrid"
    write_pgrid(path, f)
    assert np.array_equal(read_pgrid(path).values, f.values)


def test_text_values_match_repr_format_bytewise(tmp_path):
    # More values than one formatting chunk, so a chunk boundary is crossed.
    rng = np.random.default_rng(4)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, np.inf,
               -np.inf, np.nan, 1e16, -1.7976931348623157e308, 0.1]
    g = UniformGrid([0, 0], [1, 1], [299, 299])
    values = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
    values.flat[: len(special)] = special
    values.flat[-len(special):] = special
    path = tmp_path / "bytes.pgrid"
    write_pgrid(path, GridFunction(g, values))
    data = path.read_bytes().split(b"\n", 6)[6]
    assert data == "".join(f"{v:.17g}\n" for v in values.ravel()).encode("ascii")


# Values at which the text writer must round exactly like Python's %.
def _ulps(x, steps):
    """``x`` moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return float(x)


_bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
_binary_ties = st.builds(lambda k, n: k * 2.0**-n, st.integers(1, 2**53), st.integers(0, 80))
_powers_of_ten = st.builds(
    lambda k, steps: _ulps(float(f"1e{k}"), steps), st.integers(-323, 308), st.integers(-3, 3))
_decade_edges = st.builds(
    lambda k, steps: _ulps(float(f"1e{k}") * (1 - 2.0**-53), steps),
    st.integers(-300, 300), st.integers(-3, 3))
_nines = st.builds(lambda k, m: float(f"9.{'9' * m}e{k}"), st.integers(-300, 300), st.integers(13, 20))
_special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e17])
_text_values = st.lists(
    st.builds(lambda v, negate: -v if negate else v,
              st.one_of(_bit_patterns, _binary_ties, _powers_of_ten, _decade_edges, _nines,
                        _special),
              st.booleans()),
    min_size=1, max_size=40)


def _straddling_chunks(values):
    """``values`` placed across the first text chunk boundary of a 1D grid."""
    from freepoisson.pgrid import _TEXT_CHUNK

    rng = np.random.default_rng(len(values))
    flat = rng.standard_normal(_TEXT_CHUNK + len(values))
    start = _TEXT_CHUNK - len(values) // 2
    flat[start:start + len(values)] = values
    return GridFunction(UniformGrid([0.0], [1.0], [flat.size - 1]), flat)


@settings(max_examples=150)
@given(_text_values)
def test_text_writer_bytes_match_percent_g(tmp_path_factory, values):
    f = _straddling_chunks(values)
    path = tmp_path_factory.mktemp("g") / "values.pgrid"
    write_pgrid(path, f)
    data = path.read_bytes().split(b"\n", 6)[6]
    assert data == "".join("%.17g\n" % v for v in f.values.tolist()).encode("ascii")
    back = read_pgrid(path).values
    nan = np.isnan(f.values)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.int64), f.values[~nan].view(np.int64))


@settings(max_examples=60)
@given(_text_values)
def test_csv_cells_match_percent_e(tmp_path_factory, values):
    from freepoisson.pgrid import write_nodes_csv

    f = _straddling_chunks(values)
    path = tmp_path_factory.mktemp("e") / "nodes.csv"
    write_nodes_csv(path, f)
    x = f.grid.axis_coordinates(0)
    expected = "x,phi\n" + "".join(
        f"{a:.16e},{v:.16e}\n" for a, v in zip(x.tolist(), f.values.tolist()))
    assert path.read_bytes() == expected.encode("ascii")


_HEADER = "PGRID 1\ndim 1\nbounds 0 1\npanels 2\norder x y z row-major\n"


def test_rejects_non_numeric_token_with_its_index(tmp_path):
    path = tmp_path / "bad.pgrid"
    path.write_text(_HEADER + "data text\n1.0\n2.5x\n3\n")
    with pytest.raises(PGridFormatError, match=r"value 1 is not a number: '2\.5x'"):
        read_pgrid(path)


def test_text_reader_accepts_every_float_token(tmp_path):
    path = tmp_path / "tokens.pgrid"
    path.write_text(_HEADER + "data text\n-Infinity\n1_000.5 +.5e-3\n")
    assert np.array_equal(read_pgrid(path).values, [-np.inf, 1000.5, 0.0005])


def test_rejects_bytes_after_binary_values(tmp_path):
    path = tmp_path / "long.pgrid"
    path.write_bytes((_HEADER + "data binary little-endian f64\n").encode()
                     + np.arange(3.0).tobytes() + b"\n")
    with pytest.raises(PGridFormatError, match="follow the last of 3 binary values"):
        read_pgrid(path)


def test_rejects_repeated_header_key(tmp_path):
    path = tmp_path / "twice.pgrid"
    path.write_text(_HEADER.replace("panels 2\n", "panels 2\npanels 3\n")
                    + "data text\n0\n0\n0\n0\n")
    with pytest.raises(PGridFormatError, match="header key 'panels' appears twice"):
        read_pgrid(path)


@pytest.mark.parametrize(
    "header, line",
    [
        ("dim\nbounds 0 1\npanels 2\n", "dim"),
        ("dim two\nbounds 0 1\npanels 2\n", "dim two"),
        ("dim 4\nbounds 0 1 0 1 0 1 0 1\npanels 2 2 2 2\n", "dim 4"),
        ("dim 2\nbounds -1 1 -1 x\npanels 2 2\n", "bounds -1 1 -1 x"),
        ("dim 1\nbounds 1 -1\npanels 2\n", "bounds 1 -1"),
        ("dim 1\nbounds 0 1\npanels 2.5\n", "panels 2.5"),
        ("dim 1\nbounds 0 1\npanels 1\n", "panels 1"),
        ("dim 1\nbounds 0 1\npanels \xe9\n", "panels \ufffd"),
    ],
    ids=["dim-empty", "dim-word", "dim-4", "bounds-word", "bounds-reversed",
         "panels-fraction", "panels-one", "panels-non-ascii"],
)
def test_rejects_malformed_header_naming_the_line(tmp_path, header, line):
    path = tmp_path / "bad.pgrid"
    path.write_bytes(
        ("PGRID 1\n" + header + "order x y z row-major\ndata text\n0\n0\n0\n").encode("latin-1")
    )
    with pytest.raises(PGridFormatError, match=re.escape(repr(line))):
        read_pgrid(path)


def _body_file(tmp_path, count: int, body: bytes):
    """A 1D text PGRID file of ``count`` nodes whose data lines are ``body``."""
    path = tmp_path / "body.pgrid"
    path.write_bytes(f"PGRID 1\ndim 1\nbounds 0 1\npanels {count - 1}\n"
                     f"order x y z row-major\ndata text\n".encode() + body)
    return path


# Separators of every kind, runs of them, and a last token with no newline.
_MIXED_BODY = (b"1.25\r\n-3e-2\t\t 7   \r\n0.5\x0b\x0c 12345.678\n"
               b"-0.0 \t1e-310\r\n+.5e-3   1_000.5\t-Infinity\n\n  2.5")


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 1 << 14])
def test_text_reader_streams_tokens_across_chunks(tmp_path, monkeypatch, chunk):
    # Chunks of a few bytes cut tokens, CR LF pairs and runs of blanks.
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
    expected = np.array([float(t) for t in _MIXED_BODY.split()])
    back = read_pgrid(_body_file(tmp_path, expected.size, _MIXED_BODY)).values
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(allow_nan=False),
                          st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"  \t ", b"\n\n"])),
                min_size=3, max_size=30),
       st.integers(1, 40))
def test_text_reader_matches_a_whole_text_parse(tmp_path_factory, values, chunk):
    body = b"".join(repr(v).encode() + sep for v, sep in values)
    path = _body_file(tmp_path_factory.mktemp("s"), len(values), body)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
        back = read_pgrid(path).values
    assert np.array_equal(back.view(np.int64), np.array([v for v, _ in values]).view(np.int64))


@pytest.mark.parametrize("count, found", [(12, 11), (10, 11)])
def test_text_reader_counts_every_token_across_chunks(tmp_path, monkeypatch, count, found):
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", 4)
    path = _body_file(tmp_path, count, _MIXED_BODY)
    with pytest.raises(PGridFormatError, match=f"expected {count} values, found {found}$"):
        read_pgrid(path)


def test_bad_token_after_the_first_chunk_reports_its_global_index(tmp_path, monkeypatch):
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", 16)
    tokens = [f"{i}.5" for i in range(40)]
    tokens[33] = "1.5q"
    path = _body_file(tmp_path, 40, "\n".join(tokens).encode() + b"\n")
    with pytest.raises(PGridFormatError, match=r"value 33 is not a number: '1\.5q'"):
        read_pgrid(path)
    # A wrong count is reported first, as by a parse of the whole text.
    path = _body_file(tmp_path, 41, "\n".join(tokens).encode() + b"\n")
    with pytest.raises(PGridFormatError, match="expected 41 values, found 40"):
        read_pgrid(path)


# Every separator bytes.split() knows, alone and in runs.
_BLANKS = st.sampled_from([b" ", b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b"\r\n", b" \t\x0c\n"])
_TOKENS = st.one_of(
    st.just("0"),
    st.sampled_from(["-0", "00", "+0", "0.0", "0e0", "10"]),
    st.floats(allow_nan=False).map(lambda v: "%.17g" % v),
)


@settings(max_examples=150)
@given(st.lists(st.tuples(_TOKENS, _BLANKS), min_size=3, max_size=40),
       st.sampled_from([b"", b"\n", b" \r\n"]), st.booleans(), st.integers(1, 40))
def test_text_reader_reads_zero_tokens_as_a_whole_text_parse(
        tmp_path_factory, tokens, lead, last_newline, chunk):
    body = lead + b"".join(t.encode() + blank for t, blank in tokens)
    if not last_newline:
        body = body[:-len(tokens[-1][1])]
    path = _body_file(tmp_path_factory.mktemp("z"), len(tokens), body)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
        back = read_pgrid(path).values
    expected = np.array([float(t) for t in body.split()])
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("chunk", [2, 3, 4, 1 << 14])
def test_text_reader_zero_cut_by_a_chunk_end_joins_its_token(tmp_path, monkeypatch, chunk):
    # With 3-byte chunks the first ends in "\n0": that '0' begins "05", not a zero.
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
    back = read_pgrid(_body_file(tmp_path, 3, b"0\n05\n0\n")).values
    assert np.array_equal(back.view(np.int64), np.array([0.0, 5.0, 0.0]).view(np.int64))


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 14])
def test_text_reader_last_zero_without_newline(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
    back = read_pgrid(_body_file(tmp_path, 3, b"-0\n2.5\n0")).values
    assert np.array_equal(back.view(np.int64), np.array([-0.0, 2.5, 0.0]).view(np.int64))


@pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 14])
def test_text_reader_zeros_touching_rare_blanks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
    body = b"0\x0b0\x0c0\r0\r\n-0\x0b1\x0c0"
    back = read_pgrid(_body_file(tmp_path, 7, body)).values
    expected = np.array([float(t) for t in body.split()])
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("token", [b"\x010", b"0\x01"])
def test_zero_beside_a_control_byte_is_not_a_zero_token(tmp_path, token):
    # \x01 is no separator of bytes.split(), so the '0' and it are one token.
    path = _body_file(tmp_path, 3, b"0\n" + token + b"\n0\n")
    message = f"value 1 is not a number: {token.decode()!r}"
    with pytest.raises(PGridFormatError, match=re.escape(message)):
        read_pgrid(path)


@pytest.mark.parametrize("chunk", [16, 1 << 14])
def test_bad_token_after_thousands_of_zeros_reports_its_global_index(
        tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(freepoisson.pgrid, "_READ_CHUNK", chunk)
    body = b"0\n" * 5000 + b"7\n1.5q\n" + b"0\n" * 20
    path = _body_file(tmp_path, 5022, body)
    with pytest.raises(PGridFormatError, match=r"value 5001 is not a number: '1\.5q'"):
        read_pgrid(path)
    path = _body_file(tmp_path, 5023, body)
    with pytest.raises(PGridFormatError, match="expected 5023 values, found 5022"):
        read_pgrid(path)


def _traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_GRID_512 = UniformGrid([-1.0, -3.0], [1.0, 3.0], [512, 512])


def _dense_values():
    return np.random.default_rng(7).standard_normal(_GRID_512.shape)


def _mostly_zero_values():
    """Three bumps: about 6% of the nodes are nonzero."""
    coords = _GRID_512.coordinate_arrays()
    return sum(PolyBump(2, 0.15, 7, c).density(*coords)
               for c in ((0.5, 1.0), (-0.4, -1.5), (0.1, 0.2)))


@pytest.mark.parametrize("values", [_dense_values, _mostly_zero_values])
def test_text_read_holds_one_node_array(tmp_path, values):
    # The values are parsed a chunk at a time straight into the returned
    # array, so no token list of the whole file is built.
    f = GridFunction(_GRID_512, values())
    path = tmp_path / "f.pgrid"
    write_pgrid(path, f)
    read_pgrid(path)  # lazy imports and caches
    peak = _traced_peak(lambda: read_pgrid(path)) / f.values.nbytes
    assert peak <= 1.2
    assert np.array_equal(read_pgrid(path).values, f.values)


def test_binary_read_and_write_hold_no_copy(tmp_path):
    f = GridFunction(_GRID_512, _dense_values())
    path = tmp_path / "f.pgrid"
    write_pgrid(path, f, binary=True)
    assert path.read_bytes().split(b"\n", 6)[6] == f.values.astype("<f8").tobytes()
    read_pgrid(path)
    # The reader fills the returned array from the file; the writer writes
    # the values' own buffer.
    assert _traced_peak(lambda: read_pgrid(path)) <= 1.02 * f.values.nbytes
    assert _traced_peak(lambda: write_pgrid(path, f, binary=True)) <= 0.02 * f.values.nbytes
    assert np.array_equal(read_pgrid(path).values, f.values)


_WRITE_FAULTS_PROBE = """
import resource, sys
import numpy as np
from freepoisson import GridFunction, UniformGrid, write_pgrid
grid = UniformGrid([-1.0, -3.0], [1.0, 3.0], [1024, 1024])
values = np.empty(grid.shape)
np.random.default_rng(3).standard_normal(out=values)  # no full-size temporary
f = GridFunction(grid, values)
if sys.argv[2] == "raised":
    block = np.ones((30 << 20) // 8)
    del block
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_pgrid(sys.argv[1], f)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's malloc")
@pytest.mark.parametrize("state", ["fresh", "raised"])
def test_text_writer_page_faults_do_not_depend_on_allocator_history(tmp_path, state):
    # In a fresh process glibc's malloc trims its heap whenever enough of
    # its top is free, so a chunk's temporaries can be refaulted for every
    # chunk (60-80k minor faults for this grid).  An earlier allocate-and-free
    # of 30 MiB raises its mmap and trim thresholds (32 MiB and more do not).
    # The write must fault about as little in both states.
    run = subprocess.run([sys.executable, "-c", _WRITE_FAULTS_PROBE, str(tmp_path / "f.pgrid"), state],
                         env=src_env(), capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 5000
