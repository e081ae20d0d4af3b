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
hurwitz_cap, level_cap); `--bounds hurwitz_cap=N` overrides the
environment variable.  Every bound, cap and `levels --max-levels` must
be a positive integer.  `check-closure` and `cover` read mu from the
graph's legs.  `hurwitz` takes a degree >= 1, a genus >= 0 and profile
parts >= 1; profiles not summing to the degree are a negative verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import check_all
from .closure import SearchBounds, search, verify_certificate
from .covers import CombinatorialCover, closure_via_covers, validate_cover
from .decorations import TwdrDecoration, TwrDecoration, validate_twr
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
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"malformed document {path}: expected a JSON object")
    return doc


def _load_graph(path: str) -> tuple[MarkedDualGraph, LevelStructure | None]:
    doc = _load_json(path)
    try:
        graph = MarkedDualGraph.from_json(doc)
        levels = LevelStructure.from_json(doc["levels"]) if "levels" in doc else None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CliError(f"malformed graph document {path}: {exc}") from exc
    return graph, levels


def _load_valid_graph(path: str) -> tuple[MarkedDualGraph, LevelStructure | None]:
    """``_load_graph``, refusing a graph with ``validate`` errors (not instability)."""
    graph, levels = _load_graph(path)
    report = validate(graph)
    if not report.ok:
        raise CliError(f"invalid graph: {report.errors}")
    return graph, levels


def _load_document(path: str, kind=TwrDecoration, what: str = "decoration"):
    doc = _load_json(path)
    try:
        return kind.from_json(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CliError(f"malformed {what} document {path}: {exc}") from exc


def _require_levels(graph: MarkedDualGraph, levels: LevelStructure | None,
                    args) -> LevelStructure:
    if getattr(args, "levels", None):
        doc = json.loads(args.levels)
        if not isinstance(doc, dict):
            raise CliError(f"malformed levels {args.levels}: expected a JSON object")
        levels = LevelStructure.from_json(doc)
    if levels is None:
        raise CliError("no level structure: inline 'levels' or --levels required")
    if set(levels.of) != set(graph.vertex_ids):
        raise CliError(f"malformed levels {sorted(levels.of)}: the keys must be exactly "
                       f"the vertex ids {sorted(graph.vertex_ids)}")
    return levels


def _emit(payload: dict, args) -> None:
    doc = {"version": SCHEMA_VERSION, **payload}
    if args.pretty:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def cmd_validate(args) -> int:
    graph, _ = _load_graph(args.graph)
    report = validate(graph)
    _emit({"command": "validate", **report.to_json()}, args)
    return 0 if report.ok else 1


def cmd_levels(args) -> int:
    graph, _ = _load_valid_graph(args.graph)
    structures = enumerate_level_structures(graph, max_levels=args.max_levels)
    _emit({"command": "levels", "count": len(structures),
           "structures": [s.to_json() for s in structures]}, args)
    return 0


def _evaluation_system(args):
    """The evaluation system of ``args``' graph, levels and decoration.  The
    decoration must pass the structure, values and level-compatibility
    clauses that ``twist`` applies; only the order of the levels matters
    to them, so the levels need not be normalized."""
    graph, levels = _load_valid_graph(args.graph)
    levels = _require_levels(graph, levels, args)
    dec = _load_document(args.decoration) if args.decoration else None
    if dec is not None:
        report = validate_twr(graph, LevelStructure.normalize(levels.of), dec)
        if misfits := [v for v in report.violations
                       if v[0] in ("structure", "values", "level-compatibility")]:
            raise CliError(f"decoration does not fit the graph: {misfits}")
    return evaluation_system(graph, levels, dec)


def cmd_ev(args) -> int:
    system = _evaluation_system(args)
    blocks = system.to_json()
    if not args.all:
        key = str(args.level)
        if key not in blocks:
            raise CliError(f"level {key} not attained")
        blocks = {key: blocks[key]}
    _emit({"command": "ev", "levels": blocks}, args)
    return 0


def cmd_constraints(args) -> int:
    system = _evaluation_system(args)
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
    graph, levels = _load_valid_graph(args.graph)
    levels = _require_levels(graph, levels, args)
    dec = _load_document(args.decoration)
    result = twist(graph, levels, dec)
    _emit({"command": "twist", **result.to_json()}, args)
    return 0


def cmd_stabilize(args) -> int:
    graph, levels = _load_valid_graph(args.graph)
    levels = _require_levels(graph, levels, args)
    dec = _load_document(args.decoration, TwdrDecoration)
    new_graph, new_levels, new_dec, cm = stabilize(graph, levels, dec)
    _emit({"command": "stabilize",
           "graph": new_graph.to_json(),
           "levels": new_levels.to_json(),
           "decoration": new_dec.to_json(),
           "contraction": cm.to_json()}, args)
    return 0


def _int_at_least(low: int):
    """The argparse type of the integers >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_positive_int, text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"malformed profile {text!r}: expected comma-separated positive integers") from None


class _CountAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "profile") or []
        if not items:
            raise argparse.ArgumentError(self, "--count must follow a --profile")
        items.extend([items[-1]] * (values - 1))
        setattr(namespace, "profile", items)


def _env_hurwitz_cap() -> int:
    """The cap DRLOCI_HURWITZ_CAP sets, else the default."""
    text = os.environ.get("DRLOCI_HURWITZ_CAP", str(DEFAULT_DEGREE_CAP))
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError:
        raise CliError("DRLOCI_HURWITZ_CAP: hurwitz_cap must be a positive integer, "
                       f"got {text!r}") from None


def cmd_hurwitz(args) -> int:
    problem = HurwitzProblem.build(args.degree, args.genus, args.profile or [])
    cap = args.cap or _env_hurwitz_cap()  # the environment is read only without --cap
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
    cover = _load_document(args.cover, CombinatorialCover, "cover")
    report = validate_cover(cover)
    payload = {"command": "cover", "validation": report.to_json()}
    accepted = report.ok
    if args.graph:
        graph, _ = _load_valid_graph(args.graph)
        verdict = closure_via_covers(graph, graph.mu, cover)
        payload["closure"] = verdict
        accepted = verdict["accepted"]
    _emit(payload, args)
    return 0 if accepted else 1


def cmd_check_closure(args) -> int:
    graph, _ = _load_graph(args.graph)
    # later items win: the environment (or the default), then --bounds
    bounds = SearchBounds.from_strings([f"hurwitz_cap={_env_hurwitz_cap()}", *args.bounds])
    certs = search(graph, graph.mu, bounds)
    verdicts = [verify_certificate(graph, graph.mu, c, bounds.hurwitz_cap) for c in certs]
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
    p.add_argument("--max-levels", type=_positive_int, default=None)
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
    p.add_argument("--degree", type=_positive_int, required=True)
    p.add_argument("--genus", type=_int_at_least(0), required=True)
    p.add_argument("--profile", action="append", type=_profile, default=None,
                   help="comma-separated partition of the degree; repeatable")
    p.add_argument("--count", action=_CountAction, type=_positive_int,
                   help="repeat the preceding --profile this many times total")
    p.add_argument("--cap", type=_positive_int, default=None,
                   help=f"degree cap; overrides DRLOCI_HURWITZ_CAP "
                        f"(default {DEFAULT_DEGREE_CAP})")
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("cover", help="validate an admissible cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--graph", help="stable graph for the closure check")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("check-closure", help="search membership certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--bounds", action="append", default=[],
                   help="key=value: max_degree, hurwitz_cap, level_cap")
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
    except Exception as exc:  # a bug, not a verdict: never exit 1 with a traceback
        _print_error(f"internal error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
