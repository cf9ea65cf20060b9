"""Command line front end.

Subcommands: solve (exact forest number of one instance), gen (emit a
construction family), verify (run a claim sweep), profile (witness
structure of one instance), bounds (inequality sweep).

Exit codes: 0 success / claim holds, 1 a sweep found counterexamples,
2 usage or input errors, 3 an unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .core import emit_bbg, parse_bbg
from .errors import BBForestError, MalformedInputError
from .generators import FAMILIES, GeneratorSpec, build
from .solver import ENUMERATION_BUDGET, max_forest, max_forest_bruteforce
from .theorems import (THEOREM_IDS, VerificationReport, check_bounds,
                       merge_reports, profile_structure, verify_constructions,
                       verify_structure, verify_t1_exhaustive,
                       verify_t1_random, verify_t8)

__all__ = ["main", "run"]


# lower-case spellings of each claim id, with ASCII ones for "λ"
_ALIASES = {alias.lower(): tid for tid in THEOREM_IDS
            for alias in (tid, tid.replace("λ", "l"),
                          tid.replace("λ", "lambda"))}


def _canonical_theorem(text: str) -> str:
    key = text.strip().lower()
    if key not in _ALIASES:
        raise BBForestError(
            f"unknown theorem {text!r}; choose from {', '.join(THEOREM_IDS)}")
    return _ALIASES[key]


def _read_ascii(fh) -> str:
    """Read all of a text stream that must hold ASCII; the first non-ASCII
    byte is reported with its line.

    A strict decoder fails on it. A lenient one (stdin under UTF-8 mode)
    passes it on as a surrogate escape or a decoded character, and encoding
    that back with the stream's codec recovers the byte.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole stream at once, so exc.object is all of it
        data, pos = exc.object, exc.start
    else:
        if text.isascii():
            return text
        pos = next(i for i, ch in enumerate(text) if not ch.isascii())
        # the text before pos is ASCII, so it encodes to pos bytes
        data = text[:pos + 1].encode(getattr(fh, "encoding", None) or "utf-8",
                                     "surrogateescape")
    line = data.count(b"\n", 0, pos) + 1
    raise MalformedInputError(f"non-ASCII byte 0x{data[pos]:02x}", line=line)


def _read_graph(path: str):
    if path == "-":
        return parse_bbg(_read_ascii(sys.stdin))
    with open(path, "r", encoding="ascii") as fh:
        return parse_bbg(_read_ascii(fh))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbforest",
        description="Exact maximum induced forests of balanced bipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance read as BBG text")
    p.add_argument("--in", dest="path", default="-", metavar="FILE",
                   help="input file, - for stdin (default)")
    p.add_argument("--brute", action="store_true",
                   help="use the subset-scan oracle instead of branch and bound")
    p.add_argument("--brute-cap", type=int, default=24, metavar="V",
                   help="vertex cap for --brute (default 24)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed time from the output")

    p = sub.add_parser("gen", help="emit a construction family as BBG text")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True, help="part size")
    p.add_argument("--k", type=int, default=None,
                   help="target minimum degree (families that take one)")
    p.add_argument("--delta-min", type=int, default=None,
                   help="minimum degree floor for random_min_degree")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run a claim sweep, exit 1 on counterexamples")
    p.add_argument("--theorem", required=True, metavar="ID",
                   help="claim id (ASCII aliases accepted, e.g. T6l2)")
    p.add_argument("--n", type=int, action="append", default=None,
                   help="part size; repeatable where a sweep takes several")
    p.add_argument("--k", type=int, default=None,
                   help="minimum degree parameter for T7 families")
    p.add_argument("--samples", type=int, default=None,
                   help="instances per size for seeded sweeps (at least 1)")
    p.add_argument("--seed", type=int, help="first sweep seed (default 1)")
    p.add_argument("--exhaustive", action="store_true",
                   help="T1: scan every qualifying matrix instead of sampling")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for seeded sweeps (at least 1; "
                        "capped at the CPU count)")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed_ms for byte-stable output")

    p = sub.add_parser("profile", help="witness structure of one instance")
    p.add_argument("--in", dest="path", default="-", metavar="FILE",
                   help="input file, - for stdin (default)")
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("bounds", help="exact inequality sweep")
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--no-timing", action="store_true")

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    if args.brute:
        res = max_forest_bruteforce(g, cap=args.brute_cap)
    else:
        res = max_forest(g)
    v1, v2 = res.witness.indices()
    if args.format == "json":
        out = {
            "n": g.n,
            "forest_number": res.forest_number,
            "decycling_number": res.decycling_number,
            "witness": {"v1": list(v1), "v2": list(v2)},
            "nodes_explored": res.nodes_explored,
        }
        if not args.no_timing:
            out["elapsed_ms"] = round(res.elapsed * 1000.0, 3)
        print(json.dumps(out, ensure_ascii=False, indent=2))
    else:
        print(f"n: {g.n}")
        print(f"forest number: {res.forest_number}")
        print(f"decycling number: {res.decycling_number}")
        print(f"witness V1: {' '.join(map(str, v1)) or '-'}")
        print(f"witness V2: {' '.join(map(str, v2)) or '-'}")
        print(f"nodes explored: {res.nodes_explored}")
        if not args.no_timing:
            print(f"elapsed: {res.elapsed * 1000.0:.1f} ms")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(family=args.family, n=args.n, k=args.k,
                         delta_min=args.delta_min, seed=args.seed)
    sys.stdout.write(emit_bbg(build(spec)))
    return 0


def _print_report(report: VerificationReport,
                  args: argparse.Namespace) -> int:
    include_timing = not args.no_timing
    if args.format == "json":
        print(json.dumps(report.to_dict(include_timing), ensure_ascii=False,
                         indent=2))
    else:
        print(report.render_text(include_timing))
    return 0 if report.verdict == "pass" else 1


class _Claim(NamedTuple):
    """How ``verify`` runs one claim: ``run(tid, n, **options)``."""

    run: Callable[..., VerificationReport]
    # default --n if it takes one size; None: it takes the --n list
    n: int | None
    # options it reads besides --theorem, --n, --format and --no-timing
    reads: tuple[str, ...] = ()
    # the claim as run under --exhaustive, where it has that mode
    exhaustive: _Claim | None = None


# options a claim may read; one given that the claim does not read is an error
_OPTIONS = ("k", "samples", "seed", "jobs")
_SEEDED = ("samples", "seed", "jobs")


def _t1_exhaustive(tid: str, ns: list[int] | None) -> VerificationReport:
    parts = [verify_t1_exhaustive(n, allow_n5=(n == 5))
             for n in ns or (2, 3, 4)]
    return parts[0] if len(parts) == 1 else merge_reports(parts)


def _structure(tid: str, n: int, **options) -> VerificationReport:
    return verify_structure(n, check=tid, **options)


def _constructions(tid: str, ns: list[int] | None) -> VerificationReport:
    return verify_constructions(tid, ns=ns)


def _t7(tid: str, ns: list[int] | None, k: int | None = None
        ) -> VerificationReport:
    if (ns is None) != (k is None):
        raise BBForestError("T7 sweeps take --n and --k together")
    pairs = None if ns is None else [(n, k) for n in ns]
    return verify_constructions(tid, pairs=pairs)


# claim id -> how verify runs it, in THEOREM_IDS order. The runners name
# the library functions at call time, so a replaced module attribute (the
# benchmark's tracer replaces verify_structure) takes effect.
_CLAIMS = {
    "T1": _Claim(lambda tid, n, **options: verify_t1_random(n, **options),
                 6, _SEEDED, exhaustive=_Claim(_t1_exhaustive, None)),
    "P1": _Claim(_constructions, None),
    "T2": _Claim(_structure, 6, _SEEDED),
    "T4": _Claim(_structure, 7, _SEEDED),
    "C1": _Claim(_structure, 5, _SEEDED),
    "T6λ1": _Claim(_constructions, None),
    "T6λ2": _Claim(_constructions, None),
    "T6λhalf": _Claim(_constructions, None),
    "T7l1": _Claim(_t7, None, ("k",)),
    "T7l2": _Claim(_t7, None, ("k",)),
    "T8": _Claim(lambda tid, ns, **options: verify_t8(ns, **options), None,
                 _SEEDED),
    "BOUNDS": _Claim(lambda tid, n: check_bounds(n), 1000),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    tid = _canonical_theorem(args.theorem)
    if args.jobs is not None:
        if args.jobs < 1:
            raise BBForestError(f"--jobs must be at least 1, got {args.jobs}")
        args.jobs = min(args.jobs, os.cpu_count() or 1)
    claim, mode = _CLAIMS[tid], f"--theorem {tid}"
    if args.exhaustive:
        if claim.exhaustive is None:
            raise BBForestError(f"{mode} does not read --exhaustive")
        claim, mode = claim.exhaustive, f"{mode} --exhaustive"
    # unset options keep the library's defaults
    options = {name: getattr(args, name) for name in _OPTIONS
               if getattr(args, name) is not None}
    for name in options:
        if name not in claim.reads:
            raise BBForestError(f"{mode} does not read --{name}")
    n = args.n
    if claim.n is not None:
        if n is not None and len(n) > 1:
            raise BBForestError(f"{mode} takes one --n")
        n = n[0] if n else claim.n
    return _print_report(claim.run(tid, n, **options), args)


def _cmd_profile(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    prof = profile_structure(g, budget=args.budget)
    if args.format == "json":
        print(json.dumps(prof.to_dict(), ensure_ascii=False, indent=2))
    else:
        print(f"forest number: {prof.forest_number}")
        print(f"smaller-part sizes: {' '.join(map(str, sorted(prof.lambdas)))}")
        print(f"exhaustive: {'yes' if prof.exhaustive else 'no'}")
        for lam, w in sorted(prof.witness_per_lambda.items()):
            v1, v2 = w.indices()
            print(f"  lambda={lam}: V1 {list(v1)} V2 {list(v2)}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    return _print_report(check_bounds(args.n_max), args)


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "profile": _cmd_profile,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BBForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input: exit 1 stays reserved for counterexamples
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
