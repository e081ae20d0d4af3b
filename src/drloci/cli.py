"""Command-line front end.

Every subcommand reads and writes the shared JSON schema (graphs with
optional inline levels, decorations, covers) and prints one JSON
document with a mandatory version field.  Output is deterministic:
keys are sorted and no timestamps or environment data are embedded.
Exit codes: 0 for success or a positive verdict, 1 for a negative
verdict, 2 for malformed input or internal errors.

Usage errors that argparse detects print the same JSON error document
on stderr as other malformed input.

The Hurwitz degree cap can be set with the DRLOCI_HURWITZ_CAP
environment variable; an explicit `hurwitz --cap` overrides it.
`check-closure` also accepts `--bounds key=value` (max_degree,
hurwitz_cap, level_cap); its cap is, by increasing precedence, the
environment variable, `--bounds hurwitz_cap=N`, then `--hurwitz-cap`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import check_all
from .closure import SearchBounds, search, verify_certificate
from .covers import CombinatorialCover, closure_via_covers, validate_cover
from .decorations import TwdrDecoration, TwrDecoration, validate_twdr
from .fixtures import fixture_names
from .graphs import (EnumerationCapExceeded, LevelStructure, MarkedDualGraph,
                     enumerate_level_structures, validate)
from .homology import evaluation_system
from .hurwitz import (DEFAULT_DEGREE_CAP, DegreeCapExceeded, HurwitzProblem,
                      exists, rh_check)
from .twisting import TwistError, stabilize, twist

SCHEMA_VERSION = 1


class CliError(Exception):
    pass


def _print_error(message: str) -> None:
    print(json.dumps({"version": SCHEMA_VERSION, "error": message}, sort_keys=True),
          file=sys.stderr)


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports usage errors as the JSON error document; subparsers inherit it."""

    def error(self, message):
        _print_error(f"{self.prog}: {message}")
        self.exit(2)


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> tuple[MarkedDualGraph, LevelStructure | None]:
    doc = _load_json(path)
    try:
        graph = MarkedDualGraph.from_json(doc)
        levels = LevelStructure.from_json(doc["levels"]) if "levels" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed graph document {path}: {exc}") from exc
    return graph, levels


def _load_decoration(path: str, kind=TwrDecoration):
    doc = _load_json(path)
    try:
        return kind.from_json(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CliError(f"malformed decoration document {path}: {exc}") from exc


def _require_levels(levels: LevelStructure | None, args) -> LevelStructure:
    if getattr(args, "levels", None):
        return LevelStructure.from_json(json.loads(args.levels))
    if levels is None:
        raise CliError("no level structure: inline 'levels' or --levels required")
    return levels


def _emit(payload: dict, args) -> None:
    doc = {"version": SCHEMA_VERSION, **payload}
    if args.pretty:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _mu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise CliError(f"malformed mu {text!r}") from exc


def cmd_validate(args) -> int:
    graph, _ = _load_graph(args.graph)
    report = validate(graph)
    _emit({"command": "validate", **report.to_json()}, args)
    return 0 if report.ok else 1


def cmd_levels(args) -> int:
    graph, _ = _load_graph(args.graph)
    report = validate(graph)
    if not report.ok:
        raise CliError(f"invalid graph: {report.errors}")
    structures = enumerate_level_structures(graph, max_levels=args.max_levels)
    _emit({"command": "levels", "count": len(structures),
           "structures": [s.to_json() for s in structures]}, args)
    return 0


def cmd_ev(args) -> int:
    graph, levels = _load_graph(args.graph)
    levels = _require_levels(levels, args)
    dec = _load_decoration(args.decoration) if args.decoration else None
    system = evaluation_system(graph, levels, dec)
    blocks = system.to_json()
    if not args.all:
        key = str(args.level)
        if key not in blocks:
            raise CliError(f"level {key} not attained")
        blocks = {key: blocks[key]}
    _emit({"command": "ev", "levels": blocks}, args)
    return 0


def cmd_constraints(args) -> int:
    graph, levels = _load_graph(args.graph)
    levels = _require_levels(levels, args)
    dec = _load_decoration(args.decoration) if args.decoration else None
    system = evaluation_system(graph, levels, dec)
    space = system.solution_space()
    from .exact import format_rational
    payload = {
        "command": "constraints",
        "consistent": space is not None,
        "constraints": [r.render() for r in system.all_rows() if not r.is_zero],
    }
    if space is not None:
        payload["solution_dim"] = space.dim
        payload["particular"] = {k: format_rational(v)
                                 for k, v in sorted(space.particular.items())}
        payload["basis"] = [{k: format_rational(v) for k, v in sorted(b.items())}
                            for b in space.basis]
    _emit(payload, args)
    return 0 if space is not None else 1


def cmd_twist(args) -> int:
    graph, levels = _load_graph(args.graph)
    levels = _require_levels(levels, args)
    dec = _load_decoration(args.decoration)
    result = twist(graph, levels, dec)
    _emit({"command": "twist", **result.to_json()}, args)
    return 0


def cmd_stabilize(args) -> int:
    graph, levels = _load_graph(args.graph)
    levels = _require_levels(levels, args)
    dec = _load_decoration(args.decoration, TwdrDecoration)
    report = validate_twdr(graph, levels, dec)
    if not report.ok:
        raise CliError(f"decoration is not fully marked and valid: {report.violations}")
    new_graph, new_levels, new_dec, cm = stabilize(graph, levels, dec)
    _emit({"command": "stabilize",
           "graph": new_graph.to_json(),
           "levels": new_levels.to_json(),
           "decoration": new_dec.to_json(),
           "contraction": cm.to_json()}, args)
    return 0


def _profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed profile {text!r}: expected comma-separated integers") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


class _CountAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "profile") or []
        if not items:
            raise argparse.ArgumentError(self, "--count must follow a --profile")
        items.extend([items[-1]] * (values - 1))
        setattr(namespace, "profile", items)


def cmd_hurwitz(args) -> int:
    problem = HurwitzProblem.build(args.degree, args.genus, args.profile or [])
    if args.cap is not None:
        cap = args.cap
    else:
        cap = int(os.environ.get("DRLOCI_HURWITZ_CAP", DEFAULT_DEGREE_CAP))
    payload = {"command": "hurwitz", "problem": problem.to_json(),
               "rh": rh_check(problem), "cap_hit": False}
    try:
        payload["exists"] = exists(problem, cap)
    except DegreeCapExceeded:
        payload["exists"] = None
        payload["cap_hit"] = True
    _emit(payload, args)
    if payload["cap_hit"]:
        return 2
    return 0 if payload["exists"] else 1


def cmd_cover(args) -> int:
    cover = CombinatorialCover.from_json(_load_json(args.cover))
    report = validate_cover(cover)
    payload = {"command": "cover", "validation": report.to_json()}
    accepted = report.ok
    if args.graph:
        graph, _ = _load_graph(args.graph)
        mu = _mu(args.mu) if args.mu else graph.mu
        verdict = closure_via_covers(graph, mu, cover)
        payload["closure"] = verdict
        accepted = verdict["accepted"]
    _emit(payload, args)
    return 0 if accepted else 1


def cmd_check_closure(args) -> int:
    graph, _ = _load_graph(args.graph)
    mu = _mu(args.mu) if args.mu else graph.mu
    # later items win: the environment, then --bounds, then --hurwitz-cap
    items = list(args.bounds)
    if "DRLOCI_HURWITZ_CAP" in os.environ:
        items.insert(0, f"hurwitz_cap={os.environ['DRLOCI_HURWITZ_CAP']}")
    if args.hurwitz_cap is not None:
        items.append(f"hurwitz_cap={args.hurwitz_cap}")
    bounds = SearchBounds.from_strings(items)
    certs = search(graph, mu, bounds)
    verdicts = [verify_certificate(graph, mu, c, bounds.hurwitz_cap) for c in certs]
    payload = {
        "command": "check-closure",
        "member": "yes" if certs else "no-within-bounds",
        "certificates": [c.to_json() for c in certs],
        "verification": verdicts,
    }
    _emit(payload, args)
    return 0 if certs else 1


def cmd_fixtures(args) -> int:
    if not args.check:
        _emit({"command": "fixtures", "names": fixture_names()}, args)
        return 0
    results = check_all()
    _emit({"command": "fixtures", "check": results}, args)
    return 0 if all(r["ok"] for r in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="drloci",
        description="Exact membership tests for closures of double ramification loci")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural diagnostics of a marked dual graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("levels", help="enumerate level structures up to isomorphism")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-levels", type=int, default=None)
    p.set_defaults(func=cmd_levels)

    for name, func in (("ev", cmd_ev), ("constraints", cmd_constraints)):
        p = sub.add_parser(name, help="evaluation system of a decorated level graph")
        p.add_argument("--graph", required=True)
        p.add_argument("--decoration")
        p.add_argument("--levels", help="inline JSON level map, overrides the graph's")
        if name == "ev":
            p.add_argument("--level", type=int, default=0)
            p.add_argument("--all", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("twist", help="canonical twist of a twistable decoration")
    p.add_argument("--graph", required=True)
    p.add_argument("--decoration", required=True)
    p.add_argument("--levels")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("stabilize", help="stabilization of a fully marked decoration")
    p.add_argument("--graph", required=True)
    p.add_argument("--decoration", required=True)
    p.add_argument("--levels")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("hurwitz", help="Hurwitz existence by a memoized search "
                                       "over permutation factorizations")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--profile", action="append", type=_profile, default=None,
                   help="comma-separated partition of the degree; repeatable")
    p.add_argument("--count", action=_CountAction, type=_positive_int,
                   help="repeat the preceding --profile this many times total")
    p.add_argument("--cap", type=int, default=None,
                   help=f"degree cap; overrides DRLOCI_HURWITZ_CAP "
                        f"(default {DEFAULT_DEGREE_CAP})")
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("cover", help="validate an admissible cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--graph", help="stable graph for the closure check")
    p.add_argument("--mu")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("check-closure", help="search membership certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu")
    p.add_argument("--bounds", action="append", default=[],
                   help="key=value: max_degree, hurwitz_cap, level_cap")
    p.add_argument("--hurwitz-cap", type=int, default=None)
    p.set_defaults(func=cmd_check_closure)

    p = sub.add_parser("fixtures", help="list or check the bundled examples")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, EnumerationCapExceeded, TwistError, ValueError) as exc:
        _print_error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
