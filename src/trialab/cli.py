"""Command-line surface.

Subcommands: ``transform`` and ``minor`` operate on binary-function files,
``dimap`` bundles the map verbs (validate, trial, reduce, classify,
catalog), and ``verify`` runs the named verification suites.  Reports go
to standard output; files are only written through explicit ``-o``.

Exit codes: 0 success, 1 a failed ``verify`` check, 2 usage or input
errors.  Every map file is validated as it is read, so ``dimap validate``
prints VALID or exits 2.
The environment variable ``TRIALAB_TOL`` overrides the default numeric
tolerance of ``minor`` and ``transform --normalize``.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import binfun
from .altmap import classify_edge, components, genus, read_dimap, trial, write_dimap
from .binfun import DEFAULT_TOL
from .catalog import enumerate_dimaps, self_trial_members
from .errors import TrialabError
from .minor import MinorSpec, take_minor
from .reductions import ReductionKind, reduce_edge
from .transform import OMEGA, OMEGA2, inverse_transform, transform
from .verify import SUITE_NAMES, run_suites


def parse_mu(token: str) -> complex:
    """Parse `1`, `-1`, `w`, `w2`, or a finite RE(+|-)IMi decimal form."""
    special = {"1": 1.0 + 0j, "-1": -1.0 + 0j, "w": OMEGA, "w2": OMEGA2}
    if token in special:
        return special[token]
    try:
        mu = complex(token.replace("i", "j"))
    except ValueError:
        raise TrialabError(f"cannot parse mu value {token!r}") from None
    if not cmath.isfinite(mu):
        raise TrialabError(f"mu value {token!r} is not finite")
    return mu


def tolerance() -> float:
    raw = os.environ.get("TRIALAB_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise TrialabError(f"bad TRIALAB_TOL value {raw!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise TrialabError(f"TRIALAB_TOL must be finite and positive, got {raw!r}")
    return tol


def _cmd_transform(args) -> int:
    raw = binfun.read_vector(args.input)
    mu = parse_mu(args.mu)
    # A finite input may overflow; normalize and write_vector refuse the
    # non-finite result, so numpy's own warnings would only repeat that error.
    with np.errstate(over="ignore", invalid="ignore"):
        out = inverse_transform(raw, mu) if args.inverse else transform(raw, mu)
        values = out.values
        if args.normalize:
            values = binfun.normalize(values.copy(), tolerance())
    binfun.write_vector(args.output, out.m, values)
    return 0


def _cmd_minor(args) -> int:
    raw = binfun.read_vector(args.input)
    spec = MinorSpec(args.element, parse_mu(args.mu))
    with np.errstate(over="ignore", invalid="ignore"):  # as in _cmd_transform
        out = take_minor(raw, spec, tolerance())
    binfun.write_vector(args.output, out.m, out.values)
    return 0


def _cmd_dimap(args) -> int:
    if args.verb == "catalog":
        catalog = enumerate_dimaps(args.edges)
        names = [f"map{idx:03d}.adm" for idx in range(len(catalog.maps))]
        # An atlas left by another run would mix with this one: refuse
        # rather than delete the user's files.
        if os.path.isdir(args.output):
            stale = sorted({n for n in os.listdir(args.output) if n.endswith(".adm")}
                           - set(names))
            if stale:
                raise TrialabError(f"{args.output} holds {len(stale)} .adm files that this "
                                   f"catalog would not write, from {stale[0]}; "
                                   f"use an empty directory")
        os.makedirs(args.output, exist_ok=True)
        self_trial_forms = {id(g) for g in self_trial_members(catalog)}
        print(f"catalog k={args.edges}: {len(catalog.maps)} maps")
        print("index components genus-profile self-trial file")
        for idx, (g, name) in enumerate(zip(catalog.maps, names)):
            write_dimap(os.path.join(args.output, name), g)
            comps = components(g)
            profile = ",".join(map(str, sorted(genus(g, c) for c in comps))) or "-"
            flag = "yes" if id(g) in self_trial_forms else "no"
            print(f"{idx:5d} {len(comps):10d} {profile:>13s} {flag:>10s} {name}")
        return 0

    g = read_dimap(args.input)  # raises InvalidMap on an invalid map
    if args.verb == "validate":
        print(f"VALID {g.n_edges()} edges, {len(g.rotations)} vertices")
        return 0
    if args.verb == "trial":
        out, edge_map = trial(g)
        write_dimap(args.output, out)
        for src, dst in sorted(edge_map.items()):
            print(f"edge {src} -> {dst}")
        return 0
    if args.verb == "reduce":
        kind = ReductionKind.from_token(args.mu)
        out = reduce_edge(g, args.edge, kind)
        write_dimap(args.output, out)
        return 0
    if args.verb == "classify":
        labels = [args.edge] if args.edge else sorted(g.labels())
        for lab in labels:
            cls = classify_edge(g, lab)
            flags = [f.name for f in dataclasses.fields(cls) if getattr(cls, f.name)]
            print(f"{lab}: {' '.join(flags)}")
        return 0
    raise TrialabError(f"unknown dimap verb {args.verb!r}")


def _cmd_verify(args) -> int:
    results = run_suites(args.suites or None, seed=args.seed)
    by_suite: dict[str, list] = {}
    for r in results:
        by_suite.setdefault(r.suite, []).append(r)
        print(f"CHECK {r.suite}.{r.name} {'PASS' if r.passed else 'FAIL'} {r.details}")
    for suite, rs in by_suite.items():
        n_pass = sum(r.passed for r in rs)
        print(f"SUITE {suite} {'PASS' if n_pass == len(rs) else 'FAIL'} {n_pass}/{len(rs)} checks")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialab",
        description="Binary functions, mu-transforms and minors, alternating "
                    "dimaps with triality, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply the mu-transform to a .bf file")
    p.add_argument("input")
    p.add_argument("--mu", required=True, help="1, -1, w, w2, or RE(+|-)IMi")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="divide the output by its empty-set entry")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("minor", help="take a minor of a .bf file")
    p.add_argument("input")
    p.add_argument("--mu", required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("dimap", help="alternating dimap operations")
    verbs = p.add_subparsers(dest="verb", required=True)
    v = verbs.add_parser("validate")
    v.add_argument("input")
    v = verbs.add_parser("trial")
    v.add_argument("input")
    v.add_argument("-o", "--output", required=True)
    v = verbs.add_parser("reduce")
    v.add_argument("input")
    v.add_argument("--mu", required=True, choices=["1", "w", "w2"])
    v.add_argument("--edge", required=True)
    v.add_argument("-o", "--output", required=True)
    v = verbs.add_parser("classify")
    v.add_argument("input")
    v.add_argument("--edge")
    v = verbs.add_parser("catalog")
    v.add_argument("--edges", type=int, required=True)
    v.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dimap)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most
    commands take."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrialabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
