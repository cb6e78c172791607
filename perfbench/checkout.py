"""Where the benchmark runs: the checkout root, its scratch directory, and
the guarded import of the checkout's own ``trialab``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Temporary .bf files and trace output; listed in the root .gitignore.
WORK = Path(__file__).resolve().parent / ".work"


class CheckoutError(Exception):
    """trialab cannot be imported from this checkout's src/."""


def import_trialab():
    """Import trialab from ``src/`` of this checkout, as the tier-1 tests do.

    The package is not installed, so a trialab found anywhere else would
    measure some other code: refuse it.
    """
    sys.path.insert(0, str(SRC))
    try:
        import trialab
    except ImportError as exc:
        raise CheckoutError(f"cannot import trialab from {SRC}: {exc}") from exc
    check_location(trialab.__file__)
    return trialab


def check_location(path: str) -> None:
    """Refuse a trialab whose ``__file__`` is not under this checkout's ``src/``."""
    location = Path(path).resolve()
    if SRC.resolve() not in location.parents:
        raise CheckoutError(f"trialab was imported from {location}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src/ and nothing else on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
