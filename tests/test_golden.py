"""CLI output against the stored golden copy (see ``golden.py``).

Everything must match byte for byte except ``dimap reduce``, whose output
may number darts differently and is compared up to labeled equality.  In
``verify`` output the residuals printed in scientific notation follow the
floating-point library, so they are masked before comparing.
"""

import re

import pytest

import golden
from trialab.altmap import AlternatingDimap, Edge, labeled_equal, validate

SCI = re.compile(r"\d\.\d+e[-+]\d+")


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


def test_verify_output_is_identical_up_to_residual_digits(rendered):
    got, want = rendered["verify_seed0.txt"], _stored("verify_seed0.txt")
    assert SCI.sub("<x>", got) == SCI.sub("<x>", want)
    assert got.count("\n") == want.count("\n") == 23


def test_reduce_output_is_labeled_equal(rendered):
    got, want = golden.blocks(rendered["reduce.txt"]), golden.blocks(_stored("reduce.txt"))
    assert list(got) == list(want) and len(want) == 642
    for key, text in want.items():
        new = _parse(got[key])
        assert validate(new) == [], key
        assert labeled_equal(new, _parse(text)), key
