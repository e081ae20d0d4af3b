"""Replay the bundled fixtures against their expected outcomes."""

from __future__ import annotations

from .closure import search, verify_certificate
from .covers import closure_via_covers
from .decorations import component_divisor, validate_twr
from .fixtures import (FIXTURES, load_cover, load_decoration, load_graph,
                       load_levels)
from .graphs import enumerate_level_structures, isomorphic, validate
from .homology import evaluation_system, relative_h1
from .hurwitz import HurwitzProblem, component_problem, exists, rh_check
from .twisting import twist


def _check(conditions: dict[str, bool]) -> dict:
    return {"ok": all(conditions.values()),
            "failed": sorted(k for k, v in conditions.items() if not v)}


def _ev_block_ok(system, level: str, expected: dict) -> bool:
    block = system.block(int(level))
    if block.verdict() != expected["vanishes"]:
        return False
    if "solution_dim" in expected:
        from .exact import solve_forms
        syms = sorted({k for r in block.rows for k, _ in r.coeffs})
        space = solve_forms(block.rows, syms)
        if space is None or space.dim != expected["solution_dim"]:
            return False
    for group in expected.get("forced_equal", []):
        space = system.solution_space()
        if space is None:
            return False
        if len({space.column(s) for s in group}) != 1:
            return False
    return True


def check_fixture(name: str) -> dict:
    fx = FIXTURES[name]
    exp = fx["expected"]
    conds: dict[str, bool] = {}

    if "hurwitz" in fx:
        problem = HurwitzProblem.build(fx["hurwitz"]["degree"], fx["hurwitz"]["genus"],
                                       [tuple(p) for p in fx["hurwitz"]["profiles"]])
        conds["rh"] = rh_check(problem) == exp["rh"]
        conds["exists"] = exists(problem) == exp["exists"]
        return _check(conds)

    graph = load_graph(name)
    report = validate(graph)
    conds["valid"] = report.ok
    if "genus" in exp:
        conds["genus"] = report.total_genus == exp["genus"]
    conds["stable"] = report.stable == exp.get("stable", True)
    if "h1_rank" in exp:
        conds["h1_rank"] = len(relative_h1(graph)) == exp["h1_rank"]
    if "level_structures" in exp:
        conds["level_structures"] = (
            len(enumerate_level_structures(graph)) == exp["level_structures"])

    if "ev" in exp:
        levels = load_levels(name)
        dec = load_decoration(name)
        conds["twr_valid"] = validate_twr(graph, levels, dec).ok
        system = evaluation_system(graph, levels, dec)
        for lv, expected in exp["ev"].items():
            conds[f"ev[{lv}]"] = _ev_block_ok(system, lv, expected)

    if "twist_levels" in exp:
        levels = load_levels(name)
        dec = load_decoration(name)
        # twist raises unless the twist stabilizes back to its input
        tw = twist(graph, levels, dec)
        conds["twist_levels"] = tw.levels.depth + 1 == exp["twist_levels"]
        horiz = sum(1 for e, _ in graph.edges if levels.is_horizontal(graph, e))
        if "stabilized_horizontal_edges" in exp:
            conds["stabilized_horizontal"] = horiz == exp["stabilized_horizontal_edges"]
        if "stabilized_level_count" in exp:
            conds["stabilized_levels"] = levels.depth + 1 == exp["stabilized_level_count"]

    if "top_component_problem" in exp:
        levels = load_levels(name)
        dec = load_decoration(name)
        top = next(v for v in graph.vertex_ids if levels.of[v] == 0)
        want = exp["top_component_problem"]
        problem = component_problem(graph.genus_of[top], component_divisor(graph, dec, top))
        expected_problem = HurwitzProblem.build(
            want["degree"], want["genus"], [tuple(p) for p in want["profiles"]])
        conds["component_problem"] = problem == expected_problem
        conds["component_exists"] = exists(problem) == want["exists"]

    if "identical_top_level_systems" in exp:
        dec = load_decoration(name)
        l1 = load_levels(name, "levels_1")
        l2 = load_levels(name, "levels_2")
        conds["twr_valid_1"] = validate_twr(graph, l1, dec).ok
        conds["twr_valid_2"] = validate_twr(graph, l2, dec).ok
        s1 = evaluation_system(graph, l1, dec)
        s2 = evaluation_system(graph, l2, dec)
        syms = sorted(set(s1.symbols) | set(s2.symbols))
        conds["identical_top"] = (
            s1.block(0).normalized_rows(syms) == s2.block(0).normalized_rows(syms))

    if "level_minus_1_rows_1" in exp:
        dec = load_decoration(name)
        for key, lkey in (("level_minus_1_rows_1", "levels_1"),
                          ("level_minus_1_rows_2", "levels_2")):
            levels = load_levels(name, lkey)
            system = evaluation_system(graph, levels, dec)
            syms = system.symbols
            want = []
            for row in exp[key]:
                vec = [row.get(s, 0) for s in syms] + [0]
                want.append(tuple(vec))
            got = system.block(-1).normalized_rows(syms)
            conds[key] = sorted(want) == got
        levels = load_levels(name, "levels_1")
        system = evaluation_system(graph, levels, dec)
        syms = system.symbols
        vec = tuple([exp["level_0_row"].get(s, 0) for s in syms] + [0])
        conds["level_0_row"] = system.block(0).normalized_rows(syms) == [vec]

    if exp.get("member") is not None and "member" in exp:
        certs = search(graph, graph.mu)
        conds["member"] = bool(certs) == exp["member"]
        conds["certs_verify"] = all(
            verify_certificate(graph, graph.mu, c)["verdict"].startswith("accepted")
            for c in certs)
        if "search_families" in exp:
            conds["search_families"] = len(certs) == exp["search_families"]
        if "matching_pairs" in exp:
            pairs = certs[0].forced_groups if certs else []
            conds["matching_pairs"] = len(pairs) == exp["matching_pairs"]
        if exp.get("tilted_pair_accepted"):
            l1 = load_levels(name, "levels_1")
            l2 = load_levels(name, "levels_2")
            accepted = [c.levels for c in certs]
            conds["tilted_1"] = any(a == l1 for a in accepted)
            conds["tilted_2"] = any(a == l2 for a in accepted)
            conds["tilted_noniso"] = not isomorphic(graph, graph, l1, l2)

    if exp.get("cover_accepted"):
        cover = load_cover(name)
        verdict = closure_via_covers(graph, graph.mu, cover)
        conds["cover_accepted"] = verdict["accepted"]

    return _check(conds)


def check_all() -> dict[str, dict]:
    return {name: check_fixture(name) for name in sorted(FIXTURES)}
