import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freepoisson import GridFunction, PGridFormatError, UniformGrid, read_pgrid, write_pgrid
from oracles import zero_function


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
