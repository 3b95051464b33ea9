import numpy as np
import pytest

from freepoisson import GridFunction, PGridFormatError, UniformGrid, read_pgrid, write_pgrid


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
        write_pgrid(target, GridFunction.zeros(g))
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
