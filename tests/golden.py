"""Golden CLI output: render it, or regenerate the stored copy.

``render(workdir)`` runs the CLI in process and returns the text of each
golden file by name:

* ``verify_seed0.txt``: ``trialab verify --seed 0`` standard output;
* ``catalog_k<k>.txt`` for k = 0..4: ``trialab dimap catalog --edges k``
  standard output, then every atlas file under a ``== <name>`` line;
* ``classify.txt``, ``trial.txt``, ``reduce.txt``: ``trialab dimap
  classify``, ``trial`` and ``reduce`` (every edge and kind) on every
  atlas map, each block under a ``== <what was run>`` line.

The stored copy in ``tests/data/golden`` was written by the code before
dimap reductions became permutation edits; ``test_golden.py`` compares
against it.  Regenerate with ``PYTHONPATH=src python tests/golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from trialab.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
CATALOG_KS = range(5)
KINDS = ("1", "w", "w2")


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"trialab {' '.join(argv)} exited {code}")
    return out.getvalue()


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _labels(adm_text: str) -> list[str]:
    return sorted(ln.split()[1] for ln in adm_text.splitlines() if ln.startswith("edge "))


def render(workdir) -> dict[str, str]:
    files = {"verify_seed0.txt": run_cli(["verify", "--seed", "0"])}
    classify, trial, reduce = [], [], []
    out_path = os.path.join(workdir, "out.adm")
    for k in CATALOG_KS:
        atlas = os.path.join(workdir, f"k{k}")
        text = [run_cli(["dimap", "catalog", "--edges", str(k), "-o", atlas])]
        for name in sorted(os.listdir(atlas)):
            path = os.path.join(atlas, name)
            adm = _read(path)
            text.append(f"== {name}\n{adm}")
            tag = f"k{k}/{name}"
            classify.append(f"== classify {tag}\n" + run_cli(["dimap", "classify", path]))
            stdout = run_cli(["dimap", "trial", path, "-o", out_path])
            trial.append(f"== trial {tag}\n{_read(out_path)}{stdout}")
            for label in _labels(adm):
                for kind in KINDS:
                    run_cli(["dimap", "reduce", path, "--edge", label, "--mu", kind,
                             "-o", out_path])
                    reduce.append(f"== reduce {tag} {label} {kind}\n{_read(out_path)}")
        files[f"catalog_k{k}.txt"] = "".join(text)
    files["classify.txt"] = "".join(classify)
    files["trial.txt"] = "".join(trial)
    files["reduce.txt"] = "".join(reduce)
    return files


def blocks(text: str) -> dict[str, str]:
    """Split a golden file into its ``== <key>`` blocks."""
    out = {}
    for chunk in text.split("== ")[1:]:
        key, _, body = chunk.partition("\n")
        out[key] = body
    return out


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in render(tmp).items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    sys.exit(0)
