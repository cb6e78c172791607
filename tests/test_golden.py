"""CLI output against the stored golden copy (see ``golden.py``).

Everything must match byte for byte except ``dimap reduce``, whose output
may number darts differently and is compared up to labeled equality.  In
the seed-0 ``verify`` output the residuals printed in scientific notation
follow the floating-point library, so they are masked before comparing.
The seed 1..4 copies are compared byte for byte, residual digits included:
they pin the bits of the sampled checks, whose stacked kernel calls must
round each row as a one-vector call does.  Seed 1 is also run as a user
runs it, ``python -m trialab.cli`` in a new interpreter.  The k = 5,
6 and 7 catalogs are too large to store and are pinned by a SHA-256 digest
of the same layout.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import trialab
from trialab.altmap import AlternatingDimap, Edge, labeled_equal, validate

SCI = re.compile(r"\d\.\d+e[-+]\d+")

# SHA-256 of golden.catalog_text(k, atlas): the listing and all 161 / 901 /
# 5 579 maps.  Each digest was taken from an enumeration that canonicalised
# every wiring, so it pins the orbit walk against an independent run.
CATALOG_DIGESTS = {
    5: "0f3d82e05ed198c1e5b7765ef55efbe899910b171c5a29343deba12d2e0d3b93",
    6: "215cb9286fd989c5604d293aacf506321b894f65a6f3b937bd6dc33ea92af567",
    7: "11735f48dc058fb788fd312108644a0db750b17c2da7bc6f9a6f785f2bb84372",
}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return golden.render(str(tmp_path_factory.mktemp("golden")))


def _stored(name):
    return (golden.GOLDEN_DIR / name).read_text(encoding="utf-8")


def _parse(adm_text):
    edges, rotations = [], []
    for line in adm_text.splitlines():
        parts = line.split()
        if parts[0] == "edge":
            edges.append(Edge(parts[1], int(parts[2]), int(parts[3])))
        elif parts[0] == "vertex":
            rotations.append(tuple(map(int, parts[1:])))
    return AlternatingDimap(tuple(edges), tuple(rotations))


@pytest.mark.parametrize("name", [f"catalog_k{k}.txt" for k in golden.CATALOG_KS]
                         + ["classify.txt", "trial.txt"])
def test_dimap_output_is_byte_identical(rendered, name):
    assert rendered[name] == _stored(name)


@pytest.mark.parametrize("k", sorted(CATALOG_DIGESTS))
def test_large_catalog_output_matches_its_digest(tmp_path, k):
    text = golden.catalog_text(k, str(tmp_path / f"k{k}"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CATALOG_DIGESTS[k]


def test_verify_output_is_identical_up_to_residual_digits(rendered):
    got, want = rendered["verify_seed0.txt"], _stored("verify_seed0.txt")
    assert SCI.sub("<x>", got) == SCI.sub("<x>", want)
    assert got.count("\n") == want.count("\n") == 23


@pytest.mark.parametrize("seed", golden.VERIFY_SEEDS[1:])
def test_verify_output_is_byte_identical_at_more_seeds(rendered, seed):
    name = f"verify_seed{seed}.txt"
    assert rendered[name] == _stored(name)


def test_verify_in_a_fresh_process_matches_its_golden_copy():
    # A WARNING line fails on its own: the only one verify prints,
    # NOT-FOUND-AT-CAP, depends on the catalogs alone, so it is a fault.
    src = str(Path(trialab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "trialab.cli", "verify", "--seed", "1"],
                         capture_output=True, env={**os.environ, "PYTHONPATH": path},
                         timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert [ln for ln in run.stdout.splitlines() if ln.startswith(b"WARNING")] == []
    assert run.stdout == (golden.GOLDEN_DIR / "verify_seed1.txt").read_bytes()


def test_reduce_output_is_labeled_equal(rendered):
    got, want = golden.blocks(rendered["reduce.txt"]), golden.blocks(_stored("reduce.txt"))
    assert list(got) == list(want) and len(want) == 642
    for key, text in want.items():
        new = _parse(got[key])
        assert validate(new) == [], key
        assert labeled_equal(new, _parse(text)), key
