"""Large ``.bf`` files through the CLI: written with ``binfun``, run through
``trialab.cli.main`` in process, read back and compared.

m = 16 takes the transform's tiled groups, and a copy of an m = 16 file laid
out by hand takes the reader's per-line parse.  From m = 18 the transform
and ``normalize`` reach ``pool.SPLIT_MIN`` and are shared across CPUs, and
so is the minor kernel from m = 19, whose output then holds 2**18 entries.
Each is bit-identical to one CPU.
"""

import numpy as np
import pytest

from trialab import binfun, pool
from trialab.cli import main
from trialab.minor import raw_minors
from trialab.transform import OMEGA


def _write_random(path, m, seed):
    v = np.random.default_rng(seed).standard_normal(2 ** (m + 1)).view(complex)
    v[0] = 1.0
    binfun.write_vector(path, m, v)
    return v


def _round_trip_and_minor(d, f, g, element):
    """Transform f at w, invert that with --normalize, and take the minor of
    g at w on element; the paths of the three outputs."""
    t, back, minor = d / "t.bf", d / "back.bf", d / "minor.bf"
    assert main(["transform", str(f), "--mu", "w", "-o", str(t)]) == 0
    assert main(["transform", str(t), "--mu", "w", "--inverse", "--normalize",
                 "-o", str(back)]) == 0
    assert main(["minor", str(g), "--mu", "w", "--element", str(element),
                 "-o", str(minor)]) == 0
    return back, minor


def _assert_round_trip(f, back):
    back = binfun.read_vector(back).values
    assert float(np.max(np.abs(back - f))) <= 1e-9
    assert back[0] == 1.0


def test_sixteen_element_transform_round_trip_and_minor(tmp_path):
    _write_random(tmp_path / "f.bf", 16, 16)
    back, minor = _round_trip_and_minor(tmp_path, tmp_path / "f.bf", tmp_path / "f.bf", 3)
    f = binfun.read_vector(tmp_path / "f.bf").values
    _assert_round_trip(f, back)
    minor = binfun.read_vector(minor)
    assert minor.m == 15
    assert minor.values[0] == 1.0
    # The .bf writer is lossless, so the CLI's minor is the kernel's, bit for bit.
    assert np.array_equal(minor.values, binfun.normalize(raw_minors(f, 3, OMEGA)))


def test_a_file_laid_out_by_hand_gives_the_plain_file_byte_for_byte(tmp_path):
    # Comment and blank lines before the header, a comment inside the body
    # after 29 999 value lines and CRLF endings send the body to the
    # per-line parse; mu = 1 is the exact identity, so the output is the
    # plain file, byte for byte.
    plain, copy, same = tmp_path / "plain.bf", tmp_path / "copy.bf", tmp_path / "same.bf"
    _write_random(plain, 16, 161)
    lines = plain.read_text(encoding="utf-8").splitlines()
    lines = ["# laid out by hand", "", lines[0], *lines[1:30000], "  # halfway", *lines[30000:]]
    with open(copy, "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n".join(lines) + "\n")
    assert copy.read_bytes().count(b"\r\n") == 2**16 + 4
    assert main(["transform", str(copy), "--mu", "1", "-o", str(same)]) == 0
    assert same.read_bytes() == plain.read_bytes()


@pytest.fixture
def split(monkeypatch):
    """Run the split path on at least two CPUs, even on a one-CPU host."""
    monkeypatch.setattr(pool, "_CPUS", max(pool._CPUS, 2))
    return monkeypatch


def test_bf_round_trip_and_minor_on_the_split_path(tmp_path, split):
    assert 2**18 >= pool.SPLIT_MIN, pool.SPLIT_MIN
    v = _write_random(tmp_path / "f.bf", 18, 18)
    _write_random(tmp_path / "g.bf", 19, 19)
    back, minor = _round_trip_and_minor(tmp_path, tmp_path / "f.bf", tmp_path / "g.bf", 9)
    f = binfun.read_vector(tmp_path / "f.bf").values
    assert np.array_equal(f.view(np.uint64), v.view(np.uint64)), "m = 18 read differs"
    _assert_round_trip(f, back)
    # The CLI's minor ran on the split path; the expected one on one CPU.
    split.setattr(pool, "_CPUS", 1)
    g = binfun.read_vector(tmp_path / "g.bf").values
    expected = binfun.normalize(raw_minors(g, 9, OMEGA))
    minor = binfun.read_vector(minor)
    assert minor.m == 18
    assert np.array_equal(minor.values.view(np.uint64), expected.view(np.uint64)), "minor differs"
