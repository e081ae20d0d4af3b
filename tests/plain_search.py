"""The decoration-by-decoration search: the reference that
``closure.search`` must reproduce byte for byte.

Decorations come from the plain enumeration, in its order, unless
another source of the same sequence is given.  Each one is
solved through its zero pattern, its free sites are grouped by pairwise
comparison of their ``column``s, and it is decided component by
component; the first decoration to arrive in each isomorphism class
represents it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from drloci.closure import ClosureCertificate, SearchBounds, _attempt_witnesses, _sample_point
from drloci.decorations import TwrDecoration, component_divisor, site_key
from drloci.graphs import enumerate_level_structures, validate
from drloci.homology import evaluation_system
from drloci.hurwitz import (DegreeCapExceeded, InfeasibleComponent, component_problem,
                            exists, rh_check)

from plain_decorations import plain_decorations


def plain_forced_groups(free_sites, space):
    parent = {s: s for s in free_sites}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    constrained = set(space.symbols)
    for s1, s2 in itertools.combinations(free_sites, 2):
        if s1 in constrained and s2 in constrained and space.column(s1) == space.column(s2):
            parent[find(s1)] = find(s2)
    groups: dict[str, list[str]] = {}
    for s in free_sites:
        groups.setdefault(find(s), []).append(s)
    return sorted(sorted(g) for g in groups.values())


def plain_component_verdicts(graph, divisors, groups, cap, decided):
    out = {}
    for v, g in graph.vertices:
        try:
            problem = component_problem(g, divisors[v], groups)
        except InfeasibleComponent:
            return None
        if not rh_check(problem):
            return None
        if problem not in decided:
            try:
                decided[problem] = exists(problem, cap)
            except DegreeCapExceeded:
                decided[problem] = None
        if decided[problem] is False:
            return None
        out[v] = {"problem": problem, "rh": True, "exists": decided[problem],
                  "cap_hit": decided[problem] is None}
    return out


def plain_search(graph, mu=None, bounds=None, decorations=plain_decorations):
    bounds = bounds or SearchBounds()
    rep = validate(graph)
    if not rep.ok or not rep.stable:
        raise ValueError("invalid or unstable graph")
    if mu is not None and sorted(mu) != sorted(graph.mu):
        raise ValueError("mu does not match the graph legs")
    max_deg = bounds.max_degree or max(1, sum(m for m in graph.mu if m > 0))
    found: dict[tuple, ClosureCertificate] = {}
    decided: dict = {}
    for levels in enumerate_level_structures(graph, cap=bounds.level_cap):
        solved: dict = {}
        for orders, zero_marks in decorations(graph, levels, max_deg):
            dec = TwrDecoration.build(orders, {
                site_key(graph.half_edge_vertex(h), h): Fraction(0) for h in zero_marks})
            pattern = frozenset(zero_marks)
            if pattern not in solved:
                space = evaluation_system(graph, levels, dec).solution_space()
                # a regular node value forced to zero: a different stratum
                if space is not None and any(space.forces_value(s) == 0 for s in space.symbols):
                    space = None
                solved[pattern] = space
            space = solved[pattern]
            if space is None:
                continue
            divisors = {v: component_divisor(graph, dec, v) for v in graph.vertex_ids}
            free = [s for _, _, sites in divisors.values() for s in sites]
            groups = plain_forced_groups(free, space)
            comps = plain_component_verdicts(graph, divisors, groups, bounds.hurwitz_cap, decided)
            if comps is None:
                continue
            genus0 = all(g == 0 for _, g in graph.vertices)
            witness = _attempt_witnesses(divisors, space, groups) if genus0 else None
            if witness is not None:
                realizations, pinned = witness
                sample = {s: pinned.particular.get(s, Fraction(0)) for s in space.symbols}
                verdict, notes = "accepted-exact", []
            else:
                realizations = None
                sample = _sample_point(space, free)
                verdict = "accepted-modulo-genericity"
                notes = ["no exact realization witness; component existence by "
                         "Hurwitz oracle and value-genericity"]
            if any(info["cap_hit"] for info in comps.values()):
                notes = [*notes, "hurwitz degree cap exceeded on some component"]
            cert = ClosureCertificate(
                levels=levels, decoration=dec, solution_dim=space.dim, sample=sample,
                forced_groups=[g for g in groups if len(g) > 1], components=comps,
                realizations=realizations, verdict=verdict, notes=notes)
            found.setdefault(cert.key(graph), cert)
    return [found[k] for k in sorted(found)]
