import numpy as np
import pytest

from trialab import binfun
from trialab.altmap import (
    isomorphic,
    labeled_equal,
    read_dimap,
    ultraloop_stack,
    write_dimap,
)
from trialab.cli import main, parse_mu
from trialab.errors import TrialabError
from trialab.minor import MinorSpec, take_minor
from trialab.transform import OMEGA, OMEGA2, ULOOP_RATIO, transform


def test_parse_mu_tokens():
    assert parse_mu("1") == 1.0
    assert parse_mu("-1") == -1.0
    assert parse_mu("w") == OMEGA
    assert parse_mu("w2") == OMEGA2
    assert parse_mu("2.5") == 2.5
    assert parse_mu("1.5-0.25i") == complex(1.5, -0.25)
    with pytest.raises(TrialabError):
        parse_mu("elephant")


def test_parse_mu_rejects_non_finite():
    for token in ("nan", "inf", "-inf", "1+nani", "0-infi"):
        with pytest.raises(TrialabError):
            parse_mu(token)


def test_mu_parse_print_roundtrip():
    # 17 significant digits print any double exactly, so parsing them back is lossless.
    for z in (0.5 + 0.25j, 0.1 - 0.2j, OMEGA, OMEGA2, complex(ULOOP_RATIO, -1e-300)):
        assert parse_mu(f"{z.real:.17g}{z.imag:+.17g}i") == z


def _write_c1(tmp_path):
    path = tmp_path / "c1.bf"
    binfun.write_vector(path, 1, [1.0, ULOOP_RATIO])
    return path


def test_cli_transform_identity_byte_identical(tmp_path):
    src = _write_c1(tmp_path)
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "1", "-o", str(out)]) == 0
    assert src.read_text() == out.read_text()


def test_cli_transform_trinity_fixes_ultraloop_image(tmp_path):
    src = _write_c1(tmp_path)
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "w", "-o", str(out)]) == 0
    raw = binfun.read_vector(out)
    assert binfun.proportional(raw, binfun.read_vector(src), 1e-12)


def test_cli_transform_normalize_and_inverse(tmp_path):
    src = _write_c1(tmp_path)
    mid = tmp_path / "mid.bf"
    back = tmp_path / "back.bf"
    assert main(["transform", str(src), "--mu", "-1", "-o", str(mid)]) == 0
    assert main(["transform", str(mid), "--mu", "-1", "--inverse",
                 "--normalize", "-o", str(back)]) == 0
    assert binfun.allclose(binfun.read_vector(back), binfun.read_vector(src), 1e-12)


def test_cli_inverse_at_zero_fails(tmp_path):
    src = _write_c1(tmp_path)
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "0", "--inverse", "-o", str(out)]) == 2


def test_cli_transform_hadamard_duality(tmp_path):
    # Cutset indicator of the digon maps to the circuit indicator.
    src = tmp_path / "digon.bf"
    binfun.write_vector(src, 2, [1, 0, 0, 1])
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "-1", "-o", str(out)]) == 0
    raw = binfun.read_vector(out)
    assert binfun.proportional(raw, np.array([1, 0, 0, 1], dtype=complex), 1e-9)


def test_cli_minor(tmp_path):
    src = tmp_path / "digon.bf"
    binfun.write_vector(src, 2, [1, 0, 0, 1])
    out = tmp_path / "out.bf"
    assert main(["minor", str(src), "--mu", "1", "--element", "1",
                 "-o", str(out)]) == 0
    assert np.allclose(binfun.read_vector(out).values, [1.0, 1.0])

    coloop = tmp_path / "coloop.bf"
    binfun.write_vector(coloop, 1, [1, 1])
    out0 = tmp_path / "out0.bf"
    assert main(["minor", str(coloop), "--mu", "-1", "--element", "0",
                 "-o", str(out0)]) == 0
    assert binfun.read_vector(out0).m == 0


def test_cli_minor_rejects_an_element_out_of_range(tmp_path, capsys):
    src = tmp_path / "digon.bf"
    binfun.write_vector(src, 2, [1, 0, 0, 1])
    out = tmp_path / "out.bf"
    for element in ("2", "-1"):
        assert main(["minor", str(src), "--mu", "1", "--element", element, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: element {element} outside 0..1\n"
        assert not out.exists()


def test_cli_minor_writes_an_exact_empty_set_entry(tmp_path):
    # For this seed, raw / raw[0] at element 0 leaves 1 + 5.6e-17j in the
    # empty-set slot; the command must write exactly 1, as take_minor holds.
    v = np.random.default_rng(5).standard_normal(16).view(complex)
    v[0] = 1.0
    f = binfun.make(3, v)
    src = tmp_path / "f.bf"
    binfun.write_vector(src, 3, f.values)
    out = tmp_path / "minor.bf"
    assert main(["minor", str(src), "--mu", "w", "--element", "0", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0 1 0"
    expected = take_minor(f, MinorSpec(0, OMEGA)).values
    assert binfun.read_vector(out).values.tobytes() == expected.tobytes()


def test_cli_transform_normalize_writes_an_exact_empty_set_entry(tmp_path, monkeypatch):
    # For this seed, values / values[0] leaves 0.99999999999999989 in the
    # empty-set slot; --normalize must write exactly 1, as minor does.
    v = np.random.default_rng(3).standard_normal(16).view(complex)
    v[0] = 1.0
    src = tmp_path / "f.bf"
    binfun.write_vector(src, 3, v)
    out = tmp_path / "t.bf"
    assert main(["transform", str(src), "--mu", "w", "--normalize", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0 1 0"
    raw = transform(v, OMEGA).values
    expected = raw / raw[0]
    assert binfun.read_vector(out).values[1:].tobytes() == expected[1:].tobytes()
    # An entry below the tolerance is a usage error, and nothing is written.
    monkeypatch.setenv("TRIALAB_TOL", "1e6")
    again = tmp_path / "again.bf"
    assert main(["transform", str(src), "--mu", "w", "--normalize", "-o", str(again)]) == 2
    assert not again.exists()


def test_cli_minor_pole_is_a_usage_error(tmp_path):
    src = tmp_path / "digon.bf"
    binfun.write_vector(src, 2, [1, 0, 0, 1])
    out = tmp_path / "out.bf"
    rc = main(["minor", str(src), "--mu", "5.828427124746190+0i",
               "--element", "0", "-o", str(out)])
    assert rc == 2


def test_cli_rejects_non_finite_input_file(tmp_path):
    src = tmp_path / "nan.bf"
    src.write_text("bf 1\n0 1 0\n1 nan 0\n")
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "w", "-o", str(out)]) == 2
    assert main(["minor", str(src), "--mu", "1", "--element", "0", "-o", str(out)]) == 2
    assert not out.exists()


def test_cli_refuses_to_write_non_finite_output(tmp_path, capsys):
    # Finite input whose transform overflows to inf and nan.
    src = tmp_path / "big.bf"
    src.write_text("bf 1\n0 1 0\n1 1e308 0\n")
    out = tmp_path / "out.bf"
    assert main(["transform", str(src), "--mu", "1e300", "-o", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_minor_refuses_an_overflowed_empty_set_entry(tmp_path, capsys):
    # The raw empty-set entry 1e308 + 1e308 overflows to inf while the rest
    # stays finite; dividing through would write the bogus minor (1, 0).
    src = tmp_path / "big.bf"
    src.write_text("bf 2\n0 1e308 0\n1 1 0\n2 1e308 0\n3 1 0\n")
    out = tmp_path / "out.bf"
    assert main(["minor", str(src), "--mu", "1", "--element", "0", "-o", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_rejects_non_finite_mu(tmp_path):
    src = _write_c1(tmp_path)
    out = tmp_path / "out.bf"
    for mu in ("nan", "inf+0i"):
        assert main(["transform", str(src), "--mu", mu, "-o", str(out)]) == 2
        assert main(["transform", str(src), "--mu", mu, "--normalize", "-o", str(out)]) == 2
        assert main(["minor", str(src), "--mu", mu, "--element", "0", "-o", str(out)]) == 2
    assert not out.exists()


def test_cli_dimap_validate_reduce_trial(tmp_path, capsys):
    src = tmp_path / "c1.adm"
    write_dimap(src, ultraloop_stack(1))
    assert main(["dimap", "validate", str(src)]) == 0

    out = tmp_path / "reduced.adm"
    assert main(["dimap", "reduce", str(src), "--mu", "w", "--edge", "e0",
                 "-o", str(out)]) == 0
    assert read_dimap(out).n_edges() == 0

    # Trial applied three times returns the original up to dart renaming.
    current = src
    for step in range(3):
        nxt = tmp_path / f"t{step}.adm"
        assert main(["dimap", "trial", str(current), "-o", str(nxt)]) == 0
        current = nxt
    assert labeled_equal(read_dimap(current), ultraloop_stack(1))
    capsys.readouterr()


def test_cli_dimap_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.adm"
    bad.write_text("adm 4\nedge e0 0 1\nedge e1 2 3\nvertex 0 2 1 3\n")
    assert main(["dimap", "validate", str(bad)]) == 2
    capsys.readouterr()


def test_cli_dimap_validate_rejects_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.adm"
    for header in ("admx 2", "adm 2 junk"):
        bad.write_text(f"{header}\nedge e0 0 1\nvertex 0 1\n")
        assert main(["dimap", "validate", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "adm <ndarts>" in err


def test_cli_dimap_catalog(tmp_path, capsys):
    outdir = tmp_path / "atlas"
    assert main(["dimap", "catalog", "--edges", "2", "-o", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert len(files) == 4
    maps = [read_dimap(outdir / name) for name in files]
    assert sum(isomorphic(g, ultraloop_stack(1)) for g in maps) == 0
    stdout = capsys.readouterr().out
    assert "4 maps" in stdout


def test_cli_dimap_catalog_refuses_a_directory_with_other_atlas_files(tmp_path, capsys):
    outdir = tmp_path / "atlas"
    assert main(["dimap", "catalog", "--edges", "3", "-o", str(outdir)]) == 0
    (outdir / "notes.txt").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert len(before) == 12
    capsys.readouterr()
    # The 4-map catalog would leave map004..map010 from the 11-map one.
    assert main(["dimap", "catalog", "--edges", "2", "-o", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "7 .adm files" in err
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before
    # A run that rewrites every .adm file there is not refused.
    assert main(["dimap", "catalog", "--edges", "3", "-o", str(outdir)]) == 0
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_cli_dimap_catalog_rejects_a_negative_edge_count(tmp_path, capsys):
    # Also one past the top size, which the cap refuses as well.
    outdir = tmp_path / "atlas"
    for edges in ("-1", "8"):
        assert main(["dimap", "catalog", "--edges", edges, "-o", str(outdir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "outside 0..7" in err
        assert not outdir.exists()


def test_cli_dimap_catalog_genus_profiles_sorted(tmp_path, capsys):
    assert main(["dimap", "catalog", "--edges", "4", "-o", str(tmp_path / "atlas")]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 43
    for row in rows:
        profile = [int(x) for x in row.split()[2].split(",")]
        assert profile == sorted(profile)


def test_cli_dimap_classify(tmp_path, capsys):
    src = tmp_path / "c1.adm"
    write_dimap(src, ultraloop_stack(1))
    assert main(["dimap", "classify", str(src)]) == 0
    stdout = capsys.readouterr().out
    assert "is_ultraloop" in stdout and "is_triloop" in stdout


def test_cli_verify_suite_lines(capsys):
    rc = main(["verify", "dimaps", "claims", "--seed", "1"])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "SUITE dimaps PASS" in stdout
    assert "SUITE claims PASS" in stdout
    assert "CHECK dimaps.enumeration-counts PASS" in stdout


def test_cli_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


def test_cli_verify_seed_reproducible(capsys):
    main(["verify", "dimaps", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "dimaps", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_tolerance_env_override(tmp_path, monkeypatch):
    src = tmp_path / "f.bf"
    binfun.write_vector(src, 1, [1.0, -1.0])
    out = tmp_path / "out.bf"
    # lambda(1) = 1 makes the raw empty-set entry vanish; a huge tolerance
    # via the environment makes even healthy minors fail normalization.
    monkeypatch.setenv("TRIALAB_TOL", "10.0")
    rc = main(["minor", str(src), "--mu", "-1", "--element", "0", "-o", str(out)])
    assert rc == 2
    monkeypatch.delenv("TRIALAB_TOL")
    rc = main(["minor", str(src), "--mu", "-1", "--element", "0", "-o", str(out)])
    assert rc == 0


def test_tolerance_env_bad_value(tmp_path, monkeypatch):
    src = tmp_path / "f.bf"
    binfun.write_vector(src, 1, [1.0, 0.5])
    out = tmp_path / "out.bf"
    monkeypatch.setenv("TRIALAB_TOL", "not-a-number")
    assert main(["minor", str(src), "--mu", "1", "--element", "0",
                 "-o", str(out)]) == 2
    for value in ("nan", "inf", "-1", "0"):
        monkeypatch.setenv("TRIALAB_TOL", value)
        assert main(["minor", str(src), "--mu", "1", "--element", "0",
                     "-o", str(out)]) == 2
        assert main(["transform", str(src), "--mu", "w", "--normalize",
                     "-o", str(out)]) == 2
    assert not out.exists()
