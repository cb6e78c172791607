import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from trialab import binfun
from trialab.errors import (
    DimensionMismatch,
    EmptySetNotOne,
    FileFormatError,
    IndexOutOfRange,
    NonFiniteValue,
    NormalizationError,
    WrongLength,
)
from trialab.minor import MinorSpec, raw_minors, take_minor
from trialab.transform import transform

U = np.sqrt(2.0) - 1.0


def test_make_dimension_zero():
    f = binfun.make(0, [1.0])
    assert f.m == 0 and f.values[0] == 1.0


def test_make_ultraloop_image():
    f = binfun.make(1, [1.0, U])
    assert f.values[1] == pytest.approx(U)


def test_make_rejects_bad_empty_set_entry():
    with pytest.raises(EmptySetNotOne):
        binfun.make(1, [0.0, 1.0])
    # Non-finite entries are rejected rather than snapped to 1, at any tolerance.
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        for tol in (binfun.DEFAULT_TOL, np.inf):
            with pytest.raises(EmptySetNotOne):
                binfun.make(1, [bad, 2.0], tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
def test_make_and_read_vector_reject_non_finite_entries(tmp_path, bad):
    m = 4
    for pos in (1, 2**(m - 1), 2**m - 1):
        v = np.ones(2**m, dtype=complex)
        v[pos] = bad
        with pytest.raises(NonFiniteValue, match=f"index {pos}$"):
            binfun.make(m, v)
        lines = [f"{i} {z.real!r} {z.imag!r}" for i, z in enumerate(v.tolist())]
        path = tmp_path / "v.bf"
        path.write_text(f"bf {m}\n" + "\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"index {pos}$"):
            binfun.read_vector(path)


def test_make_rejects_wrong_length():
    with pytest.raises(WrongLength):
        binfun.make(2, [1.0, 0.0])


def test_vectors_is_the_one_coercion():
    f = binfun.make(1, [1.0, 2.0])
    assert isinstance(f, binfun.RawVector)
    assert binfun.vectors(f) == (1, f.values)
    stack = np.ones((3, 2, 8))
    m, values = binfun.vectors(stack)
    assert m == 3 and values.shape == (3, 2, 8) and values.dtype == complex
    for bad in (np.ones(6), np.ones((2, 3)), np.ones((2, 0)), 1.0):
        with pytest.raises(WrongLength):
            binfun.vectors(bad)
    # as_values is its flat case.
    assert binfun.as_values([1.0, 2.0])[0] == 1
    with pytest.raises(WrongLength, match="flat"):
        binfun.as_values(stack)


def test_raw_vectors_of_the_wrong_length_are_refused():
    # A vector refuses values that are not 2**m long, so none reaches a
    # kernel mislabelled.
    with pytest.raises(WrongLength):
        transform(binfun.RawVector(2, np.ones(8)), 0.5)
    with pytest.raises(WrongLength):
        take_minor(binfun.BinaryFunction(2, np.ones(8)), MinorSpec(0, 1.0))
    with pytest.raises(WrongLength):
        raw_minors(binfun.RawVector(3, np.ones(5)), 0, 1.0)
    for m, values in ((-1, np.ones(1)), (1, np.ones((1, 2))), (0, np.ones(0))):
        with pytest.raises(WrongLength):
            binfun.RawVector(m, values)
    assert binfun.RawVector(0, np.ones(1)).m == 0


def make_normalized(m, values, tol=binfun.DEFAULT_TOL):
    """Divide through by the empty-set entry; error when it is tiny."""
    v = np.array(values, dtype=complex)
    if v.shape != (2**m,):
        raise WrongLength(f"need 2**{m} = {2**m} values, got {v.shape}")
    return binfun.make(m, binfun.normalize(v, tol), tol=0.0)


def test_make_normalized_divides_through():
    f = make_normalized(1, [2.0, 1.0])
    assert f.values[0] == 1.0
    assert f.values[1] == pytest.approx(0.5)


def test_make_normalized_rejects_tiny_entry():
    with pytest.raises(NormalizationError):
        make_normalized(1, [1e-12, 1.0])


def test_normalize_is_in_place_exact_and_finite():
    # For this seed v / v[0] leaves 1 + 6.1e-17j in the empty-set slot.
    v = np.random.default_rng(5).standard_normal(16).view(complex)
    expected = v / v[0]
    out = binfun.normalize(v)
    assert out is v and v[0] == 1.0
    assert v[1:].tobytes() == expected[1:].tobytes()
    # A non-finite entry is refused, not divided through and snapped to 1.
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        with pytest.raises(NonFiniteValue):
            binfun.normalize(np.array([bad, 2.0], dtype=complex))


def test_proportional_scaling():
    rng = np.random.default_rng(7)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert binfun.proportional(2.5 * b, b)
    assert binfun.proportional((0.3 - 1.2j) * b, b)


def test_proportional_rejects_non_multiples():
    assert not binfun.proportional([1.0, 0.0], [1.0, 1.0])


def test_proportional_across_dot_chunks():
    # 2**14 entries span two DOT_CHUNK slices; a change in the second alone
    # must still break proportionality.
    rng = np.random.default_rng(11)
    b = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
    assert binfun.proportional((0.3 - 1.2j) * b, b)
    a = 2.0 * b
    a[-1] += 1.0
    assert not binfun.proportional(a, b)
    c = np.vdot(b, a) / np.vdot(b, b)
    expect = np.max(np.abs(a - c * b)) / np.max(np.abs(a))
    assert abs(binfun.proportionality_residual(a, b) - expect) <= 1e-12


def _full_size_residual(a, b):
    """proportionality_residual computed on whole vectors: full-size norms and
    difference, and np.vdot summed over DOT_CHUNK slices from 0 when longer."""
    def vdot(x, y):
        n = binfun.DOT_CHUNK
        if x.size <= n:
            return np.vdot(x, y)
        return sum(np.vdot(x[i:i + n], y[i:i + n]) for i in range(0, x.size, n))

    na, nb = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return float("inf")
    c = vdot(b, a) / vdot(b, b)
    if abs(c) == 0.0:
        return float("inf")
    return float(np.max(np.abs(a - c * b)) / na)


def test_proportionality_residual_is_exactly_the_full_size_one():
    # m = 12..14 straddle DOT_CHUNK.
    rng = np.random.default_rng(29)
    for m in range(0, 15):
        n = 2**m
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        near = (0.3 - 1.2j) * a
        near[-1] += 1e-12
        zero = np.zeros(n, dtype=complex)
        signed = zero.copy()
        signed[::2] = complex(-0.0, -0.0)
        cases = [(a, b), (a, 2.5 * a), ((0.3 - 1.2j) * a, a), (near, a), (a, near),
                 (zero, zero), (zero, a), (a, zero), (signed, zero), (signed, a)]
        for x, y in cases:
            got = binfun.proportionality_residual(x, y)
            assert np.float64(got).tobytes() == np.float64(_full_size_residual(x, y)).tobytes()


def test_proportional_zero_vectors():
    assert binfun.proportional([0.0, 0.0], [0.0, 0.0])
    assert not binfun.proportional([0.0, 0.0], [1.0, 0.0])
    assert not binfun.proportional([1.0, 0.0], [0.0, 0.0])


def test_proportional_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        binfun.proportional([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


def test_binary_functions_proportional_iff_equal():
    # The empty-set entries pin the constant to 1.
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v[0] = w[0] = 1.0
        f, g = binfun.make(3, v), binfun.make(3, w)
        assert binfun.proportional(f, g, 1e-9) == binfun.allclose(f, g, 1e-7)


def test_tensor_unit_is_identity():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v[0] = 1.0
    f = binfun.make(2, v)
    g = binfun.tensor(f, binfun.unit())
    assert binfun.allclose(f, g, 0.0)


def test_tensor_of_ultraloop_images():
    f = binfun.make(1, [1.0, U])
    ff = binfun.tensor(f, f)
    assert np.allclose(ff.values, [1.0, U, U, U * U])


def test_tensor_of_indicators():
    coloop = binfun.make(1, [1.0, 1.0])
    loop = binfun.make(1, [1.0, 0.0])
    # Direct product of (1,1) and (1,0).
    assert np.allclose(binfun.tensor(coloop, loop).values, [1, 0, 1, 0])


def test_tensor_dimension_adds_and_associates():
    rng = np.random.default_rng(5)
    fs = []
    for m in (1, 2, 1):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        v[0] = 1.0
        fs.append(binfun.make(m, v))
    left = binfun.tensor(binfun.tensor(fs[0], fs[1]), fs[2])
    right = binfun.tensor(fs[0], binfun.tensor(fs[1], fs[2]))
    assert left.m == 4
    assert binfun.allclose(left, right, 1e-12)


def test_rowspace_indicator_loop_and_coloop():
    assert np.allclose(binfun.rowspace_indicator(1, [0]).values, [1, 0])
    assert np.allclose(binfun.rowspace_indicator(1, [1]).values, [1, 1])


def test_rowspace_indicator_digon():
    # Incidence masks of two parallel edges; oracle enumerates all row
    # combinations by brute force.
    n = [0b11, 0b11]
    expected = np.zeros(4)
    for take in itertools.product((0, 1), repeat=2):
        expected[(take[0] * n[0]) ^ (take[1] * n[1])] = 1.0
    assert np.allclose(expected, [1, 0, 0, 1])
    assert np.allclose(binfun.rowspace_indicator(2, n).values, expected)


def test_rowspace_indicator_rejects_a_mask_outside_the_ground_set():
    # e_0 is the most significant bit: 0b100 is {e_0} on three elements and
    # names no subset of two.
    assert np.allclose(binfun.rowspace_indicator(3, [0b100]).values, [1, 0, 0, 0, 1, 0, 0, 0])
    for bad in ([0b100], [0b01, 0b111], [-1]):
        with pytest.raises(IndexOutOfRange):
            binfun.rowspace_indicator(2, bad)


def test_rowspace_indicator_closed_under_gf2_sum():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows = rng.integers(0, 5)
        cols = int(rng.integers(1, 7))
        n = [int(x) for x in rng.integers(0, 2**cols, size=rows)]
        f = binfun.rowspace_indicator(cols, n)
        support = [i for i, z in enumerate(f.values) if z == 1.0]
        assert set(f.values) <= {0.0, 1.0}
        assert f.values[0] == 1.0
        for x in support:
            for y in support:
                assert f.values[x ^ y] == 1.0


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v[0] = 1.0
    f = binfun.make(3, v)
    path = tmp_path / "f.bf"
    binfun.write_vector(path, f.m, f.values)
    g = binfun.read_vector(path)
    assert g.m == 3
    assert binfun.allclose(f, g, 0.0)
    # Second roundtrip is byte-identical.
    path2 = tmp_path / "g.bf"
    binfun.write_vector(path2, g.m, g.values)
    assert path.read_text() == path2.read_text()


def test_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.bf"
    path.write_text("# comment\nbf 1\n  # indented comment\n0 1 0\n1 0.5 0\n")
    raw = binfun.read_vector(path)
    assert raw.m == 1 and raw.values[1] == 0.5

    bad = tmp_path / "bad.bf"
    bad.write_text("bf 1\n1 1 0\n0 0.5 0\n")
    with pytest.raises(FileFormatError):
        binfun.read_vector(bad)

    for line in ("1 nan 0", "1 0.5 inf", "1 -inf 0"):
        non_finite = tmp_path / "non_finite.bf"
        non_finite.write_text(f"bf 1\n0 1 0\n{line}\n")
        with pytest.raises(FileFormatError):
            binfun.read_vector(non_finite)


def test_read_vector_rejects_a_trailing_comment(tmp_path):
    # Comments are whole lines; a note after a line's fields is malformed.
    path = tmp_path / "c.bf"
    for text in ("bf 1   # one element\n0 1 0\n1 0.5 0\n",
                 "bf 1\n0 1 0\n1 0.5 0   # ultraloop ratio\n"):
        path.write_text(text)
        with pytest.raises(FileFormatError):
            binfun.read_vector(path)


def _per_line_write(path, m, v):
    """write_vector's format written one line, and one numpy scalar, at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"bf {m}\n")
        for i, z in enumerate(v):
            fh.write(f"{i} {z.real:.17g} {z.imag:.17g}\n")


def test_write_vector_is_byte_identical_to_per_line_writer(tmp_path):
    # 2**14 rows span two slices of WRITE_ROWS.
    rng = np.random.default_rng(37)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 1 / 3]
    for m in (0, 1, 3, 13, 14):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        n = min(2**m, 64)
        v.real[:n], v.imag[:n] = rng.choice(special, size=(2, n))
        v[-1] = complex(-0.0, 5e-324)
        binfun.write_vector(tmp_path / "new.bf", m, v)
        _per_line_write(tmp_path / "old.bf", m, v)
        assert (tmp_path / "new.bf").read_bytes() == (tmp_path / "old.bf").read_bytes()


_FILE_TESTS = settings(max_examples=80, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _finite_vectors(draw):
    m = draw(st.integers(0, 6))
    parts = draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=2**m, max_size=2**m))
    return m, np.array([complex(re, im) for re, im in parts])


@_FILE_TESTS
@given(_finite_vectors())
def test_file_roundtrip_is_exact(tmp_path, vector):
    m, v = vector
    path = tmp_path / "v.bf"
    binfun.write_vector(path, m, v)
    raw = binfun.read_vector(path)
    assert raw.m == m
    # Bit for bit, so signed zeros and subnormals survive too.
    assert raw.values.tobytes() == v.tobytes()
    again = tmp_path / "again.bf"
    binfun.write_vector(again, raw.m, raw.values)
    assert again.read_text() == path.read_text()


@_FILE_TESTS
@given(_finite_vectors(),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                          st.text(" \t\n#-+.0123456789bfeEijnaNI", max_size=6)
                          | st.text(max_size=3)),
                min_size=1, max_size=4))
@example((0, np.array([1 + 0j])), [(4, 0, "99999")])  # header "bf 099999"
def test_file_fuzz_raises_only_format_errors(tmp_path, vector, edits):
    m, v = vector
    path = tmp_path / "v.bf"
    binfun.write_vector(path, m, v)
    text = path.read_text(encoding="utf-8")
    for at, cut, insert in edits:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
    path.write_text(text, encoding="utf-8")
    try:
        raw = binfun.read_vector(path)
    except (FileFormatError, NonFiniteValue):
        return
    assert raw.values.shape == (2**raw.m,)
    assert np.isfinite(raw.values).all()


def _per_line_read(path):
    """read_vector as a loop over the lines: the reader before the bulk parse."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "bf":
        raise FileFormatError(f"{path}: first line must be 'bf <m>'")
    try:
        m = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad dimension {head[1]!r}") from exc
    if m < 0:
        raise FileFormatError(f"{path}: negative dimension")
    body = lines[1:]
    if m >= 64 or len(body) != 2**m:
        raise FileFormatError(f"{path}: expected 2**{m} value lines, found {len(body)}")
    real, imag = [], []
    for pos, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad value line {ln!r}")
        try:
            idx, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad value line {ln!r}") from exc
        if idx != pos:
            raise FileFormatError(f"{path}: index {idx} out of order (expected {pos})")
        real.append(re)
        imag.append(im)
    values = np.empty(2**m, dtype=complex)
    values.real = real
    values.imag = imag
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FileFormatError(f"{path}: non-finite value at index {bad[0]}")
    return binfun.RawVector(m, values)


def _outcome(read, path):
    """The bits of what read returns, or its error's type and message."""
    try:
        raw = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return raw.m, raw.values.tobytes()


_GAP = st.text(" \t", min_size=1, max_size=3)


@st.composite
def _valid_files(draw):
    """A valid .bf file's text, with free layout: blank lines, runs of spaces
    and tabs, CRLF endings and whole-line comments."""
    m, v = draw(_finite_vectors())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.text(" \t", max_size=2)
    extras = st.lists(st.sampled_from(["", "  ", "\t", "# note", "  #", "#0 1 2"]), max_size=2)
    lines = [*draw(extras), f"{draw(pad)}bf{draw(_GAP)}{m}{draw(pad)}"]
    for i, z in enumerate(v.tolist()):
        fmt = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.17e}"]))
        fields = [str(i), fmt.format(z.real), fmt.format(z.imag)]
        lines += draw(extras)
        lines.append(draw(pad) + "".join(f + draw(_GAP) for f in fields[:2]) + fields[2] + draw(pad))
    lines += draw(extras)
    return m, v, newline.join(lines) + draw(st.sampled_from(["", newline]))


@_FILE_TESTS
@given(_valid_files())
def test_bulk_reader_matches_the_per_line_reader(tmp_path, case):
    m, v, text = case
    path = tmp_path / "v.bf"
    path.write_bytes(text.encode("utf-8"))
    raw = binfun.read_vector(path)
    assert _outcome(binfun.read_vector, path) == _outcome(_per_line_read, path)
    assert raw.m == m and raw.values.tobytes() == v.tobytes()


@_FILE_TESTS
@given(_finite_vectors(),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                          st.text(" \t\r\n#-+._0123456789bfeEijnaNI٣", max_size=6)
                          | st.text(max_size=3)),
                min_size=1, max_size=4))
def test_bulk_reader_matches_the_per_line_reader_on_edited_files(tmp_path, vector, edits):
    # Whatever the edit, both readers accept the same values or raise the
    # same message.
    m, v = vector
    path = tmp_path / "v.bf"
    binfun.write_vector(path, m, v)
    text = path.read_text(encoding="utf-8")
    for at, cut, insert in edits:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(binfun.read_vector, path) == _outcome(_per_line_read, path)


def test_comments_before_the_header_leave_the_body_to_numpy(tmp_path, monkeypatch):
    # Only the header is read past comment and blank lines; a plain body is
    # numpy's to parse, so the file reads with the per-line parse broken.
    rng = np.random.default_rng(5)
    v = rng.standard_normal(2**6) + 1j * rng.standard_normal(2**6)
    path = tmp_path / "v.bf"
    binfun.write_vector(path, 6, v)
    path.write_text("# made by hand\n\n  \t\n  # indented\n" + path.read_text())
    expected = _outcome(_per_line_read, path)

    def refuse(*args):
        raise AssertionError("numpy's parse should have taken this body")

    monkeypatch.setattr(binfun, "_parse_lines", refuse)
    assert _outcome(binfun.read_vector, path) == expected == (6, v.tobytes())


def test_tokens_only_python_parses_still_load(tmp_path):
    # numpy's parser rejects these; the per-line loop reads them with
    # Python's int and float.
    path = tmp_path / "v.bf"
    path.write_text("bf 1\n0 1_0 0\n١ 1_0.5 ٣\n", encoding="utf-8")
    raw = binfun.read_vector(path)
    assert raw.values.tolist() == [10.0, complex(10.5, 3.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, message", [
    ("", "expected 2**1 value lines, found 0"),
    ("\n  \n\t\n", "expected 2**1 value lines, found 0"),
    ("0 1 0\n", "expected 2**1 value lines, found 1"),
    ("0 1 0\n1 2 0\n2 3 0\n", "expected 2**1 value lines, found 3"),
    ("1 1 0\n0 2 0\n", "index 1 out of order (expected 0)"),
    ("0 1 0\n1 2 0 4\n", "bad value line '1 2 0 4'"),
    ("0 1 0\n1 2 0 # note\n", "bad value line '1 2 0 # note'"),
    ("0 1 0\n1 nan 0\n", "non-finite value at index 1"),
    ("0 1 0\n1 2 inf\n", "non-finite value at index 1"),
])
def test_malformed_value_lines_keep_their_messages(tmp_path, body, message):
    path = tmp_path / "v.bf"
    path.write_text("bf 1\n" + body)
    with pytest.raises(FileFormatError) as err:
        binfun.read_vector(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("body, found", [
    ("1 1 0\n", 1),
    ("0 1 0\n1 2 0 4\n2 3 0\n", 3),
    ("# note\n0 1 0\nx\n1 2 0\n", 3),
])
def test_the_line_count_is_checked_before_any_value_line(tmp_path, body, found):
    # A wrong count is named even where a value line is bad or out of order.
    path = tmp_path / "v.bf"
    path.write_text("bf 1\n" + body)
    with pytest.raises(FileFormatError) as err:
        binfun.read_vector(path)
    assert str(err.value) == f"{path}: expected 2**1 value lines, found {found}"


@pytest.mark.parametrize("pos", [2**16 + 5, 2**17 - 1])
def test_an_index_out_of_order_past_the_first_order_slice_is_found(tmp_path, pos):
    # A bad index deep in a long file, or in its last line, fails numpy's
    # whole-array order check and sends the file to the per-line parse and
    # its message.
    path = tmp_path / "v.bf"
    binfun.write_vector(path, 17, np.ones(2**17, dtype=complex))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1 + pos].startswith(f"{pos} ")
    lines[1 + pos] = f"{pos + 1}" + lines[1 + pos][len(str(pos)):]
    path.write_text("".join(lines))
    with pytest.raises(FileFormatError) as err:
        binfun.read_vector(path)
    assert str(err.value) == f"{path}: index {pos + 1} out of order (expected {pos})"


@pytest.mark.parametrize("head, message", [
    ("bf\n", "first line must be 'bf <m>'"),
    ("bx 1\n", "first line must be 'bf <m>'"),
    ("bf one\n", "bad dimension 'one'"),
    ("bf -1\n", "negative dimension"),
    ("bf 64\n", "expected 2**64 value lines, found 2"),
])
def test_bad_headers_keep_their_messages(tmp_path, head, message):
    path = tmp_path / "v.bf"
    path.write_text(head + "0 1 0\n1 2 0\n")
    with pytest.raises(FileFormatError) as err:
        binfun.read_vector(path)
    assert str(err.value) == f"{path}: {message}"
