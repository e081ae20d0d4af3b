"""Membership search for closures of double ramification loci.

A stable marked dual graph lies in the closure exactly when some level
structure carries an inequality-form decoration whose evaluation system
vanishes identically, with every component's ramification data realizable.
The search computes each quantity once, at the stage it depends on:

1. Per normalized level structure, the zero patterns (which node
   preimages are nodal zeros) that some admissible order assignment
   completes (poles only on strictly lower ends, order sums >= -2,
   per-vertex divisor balance and order deficit), and the level
   filtration.
2. Per zero pattern, the exact solution space of the evaluation system,
   the test that no regular node value is forced to zero, and the column
   of every constrained site: two sites are forced equal exactly when
   their columns are equal.  Pole sites sit on the lower ends of vertical
   edges, which the level restriction never evaluates, so the system
   reads a decoration only through its zero pattern.
3. Per pattern, the orders are placed edge by edge; as soon as the last
   half-edge of a vertex is placed, its component is compiled into a
   Hurwitz problem (kept per vertex and local orders) and the branch is
   cut when the component is infeasible, fails Riemann-Hurwitz, or does
   not exist.  Each distinct problem is decided once per search; a
   problem beyond the degree cap does not cut.
4. Per isomorphism class, the candidate of least rank (level structure
   index, then per edge in graph order the index of its option) is
   kept, so the traversal order does not change the result.  Genus-0-only
   representatives are upgraded to exact certificates when explicit
   rational witnesses exist.

Every candidate the enumeration yields passes ``validate_twr`` by
construction, except on a lone vertex without half-edges, whose missing
pole the component check rejects; ``verify_certificate`` re-runs it, and
every other check, on each certificate.

Completeness boundary: node multiplicities are capped by the total
positive mu mass (or an explicit bound), and component realizability
beyond the Hurwitz degree cap is reported, not decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .decorations import TwrDecoration, site_key, validate_twr
from .exact import AffineSubspace, format_rational
from .graphs import (LevelStructure, MarkedDualGraph, canonical_key,
                     enumerate_level_structures, half_edge_id, validate)
from . import homology
from .homology import LevelFiltration, evaluation_system
from .hurwitz import (DegreeCapExceeded, Genus0Realization, HurwitzProblem,
                      InfeasibleComponent, component_problem, exists, rh_check)
from .witnesses import ComponentShape, realize_component

DEFAULT_HURWITZ_CAP = 6


@dataclass
class SearchBounds:
    max_degree: int | None = None
    hurwitz_cap: int = DEFAULT_HURWITZ_CAP
    level_cap: int = 200_000

    @staticmethod
    def from_strings(items) -> "SearchBounds":
        b = SearchBounds()
        for item in items or []:
            key, _, val = item.partition("=")
            key = key.replace("-", "_")
            if not hasattr(b, key):
                raise ValueError(f"unknown bound {key!r}")
            setattr(b, key, int(val))
        return b


@dataclass
class ClosureCertificate:
    """One accepted candidate: level structure, decoration, solved values,
    per-component oracle verdicts, and optional exact realizations."""

    levels: LevelStructure
    decoration: TwrDecoration
    solution_dim: int
    sample: dict[str, Fraction]
    forced_groups: list[list[str]]
    components: dict[str, dict]
    realizations: dict[str, Genus0Realization] | None
    verdict: str
    notes: list[str] = field(default_factory=list)

    def key(self, graph: MarkedDualGraph) -> tuple:
        return _decoration_key(graph, self.levels, self.decoration)

    def to_json(self) -> dict:
        return {
            "levels": self.levels.to_json(),
            "decoration": self.decoration.to_json(),
            "solution_dim": self.solution_dim,
            "sample": {k: format_rational(v) for k, v in sorted(self.sample.items())},
            "forced_fibers": [sorted(g) for g in self.forced_groups],
            "components": {
                v: {
                    "problem": info["problem"].to_json(),
                    "rh": info["rh"],
                    "exists": info["exists"],
                    "cap_hit": info["cap_hit"],
                }
                for v, info in sorted(self.components.items())
            },
            "realizations": {v: r.to_json() for v, r in (self.realizations or {}).items()} or None,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _edge_side_options(order_cap: int, can_zero: bool) -> list[tuple[int, bool, bool]]:
    out = []
    for o in range(order_cap):
        out.append((o, False, False))
        if can_zero:
            out.append((o, False, True))
    return out


def _edge_options(graph: MarkedDualGraph, levels: LevelStructure, e: str,
                  max_deg: int) -> list[tuple[tuple[int, bool, bool], tuple[int, bool, bool]]]:
    """Admissible (order, pole, nodal-zero) pairs for the two sides."""
    a, b = graph.edge_ends[e]
    la, lb = levels.of[a], levels.of[b]
    regular = _edge_side_options(max_deg, True)
    poles = [(-m - 1, True, False) for m in range(1, max_deg + 1)]
    opts = []
    if la == lb:
        for s0 in regular:
            for s1 in regular:
                opts.append((s0, s1))
        return opts
    upper_is_0 = la > lb
    for su in regular:
        for sl in regular + poles:
            if su[0] + sl[0] < -2:
                continue
            opts.append((su, sl) if upper_is_0 else (sl, su))
    return opts


class _Step(NamedTuple):
    """One edge of the walk: its end vertices and half-edges, the
    half-edges still open at each end after it (all, and possible poles),
    its options per zero-flag pair grouped by first side, the vertices it
    closes, and the vertices a completion from it on depends on."""

    a: int
    b: int
    h0: str
    h1: str
    open_a: tuple[int, int]
    open_b: tuple[int, int]
    by_flags: dict[tuple[bool, bool], list]
    closing: list[str]
    still: tuple[int, ...]


def _decorations(graph: MarkedDualGraph, levels: LevelStructure,
                 max_deg: int, judge_of=None):
    """All admissible decorations, zero pattern by zero pattern.

    Yields (rank, orders, zero marks, judge).  The rank is the tuple, over
    edges in graph order, of the chosen option's index in
    ``_edge_options``, so sorting by rank gives the plain enumeration's
    order.

    Edges are placed one by one.  Per vertex the walk tracks the pole mass
    P and the zero mass Z (legs included), the order sum O (a leg of mu m
    counts m - 1), the half-edges still open, and how many of those can
    still be poles (the lower ends of vertical edges).  Regular orders are
    >= 0 and a pole of mass m adds -(m+1) to O, so a vertex can no longer
    close, and the branch is cut, when P > max_deg or Z > max_deg; when no
    pole can come and P < 1, Z > P or O > 2g-2; when poles can still come
    but even the remaining pole budget B = max_deg - P spent on
    min(open poles, B) poles leaves O - B - min(open poles, B) > 2g-2;
    and, once closed, when a vertex with a marked zero has Z != P.

    First, the zero patterns (which node preimages are nodal zeros) that
    have an admissible completion are collected: per edge and state of
    the vertices still open, the suffixes of zero flags that complete it.
    Then, pattern by pattern, the orders are placed over the options
    matching the pattern, entering only states that complete it.
    ``judge_of``, when given, maps a pattern to its judge, or to None to
    skip the pattern; a branch is cut when ``judge.verdict(v, orders)``
    is None as the last half-edge of v is placed.  A vertex without
    half-edges is judged at the leaf.
    """
    vids = graph.vertex_ids
    index = {v: i for i, v in enumerate(vids)}
    n = len(index)
    top = [2 * g - 2 for _, g in graph.vertices]
    pole_mass, zero_mass, order_sum = [0] * n, [0] * n, [0] * n
    marked = [False] * n
    for _, v, m in graph.legs:
        i = index[v]
        if m < 0:
            pole_mass[i] -= m
        else:
            zero_mass[i] += m
        marked[i] = marked[i] or m > 0
        order_sum[i] += m - 1

    def side(opt: tuple[int, bool, bool]):
        o, pole, zmark = opt
        return (o, pole), o, -o - 1 if pole else 0, o + 1 if zmark else 0

    # walking the edges backwards, count per vertex the half-edges on the
    # edges placed after the current one, and how many of them can be poles
    later_all, later_poles = [0] * n, [0] * n
    plan = []
    for e, (a, b) in reversed(graph.edges):
        ia, ib = index[a], index[b]
        # per zero-flag pair, the options grouped by their first side
        by_flags: dict[tuple[bool, bool], dict] = {}
        for j, (s0, s1) in enumerate(_edge_options(graph, levels, e, max_deg)):
            firsts = by_flags.setdefault((s0[2], s1[2]), {})
            if s0 not in firsts:
                firsts[s0] = (side(s0), [])
            firsts[s0][1].append((j, side(s1)))
        by_flags = {pair: list(firsts.values()) for pair, firsts in by_flags.items()}
        closing = [vids[i] for i in dict.fromkeys((ia, ib)) if later_all[i] == 0]
        open_a, open_b = (later_all[ia], later_poles[ia]), (later_all[ib], later_poles[ib])
        later_all[ia] += 1
        later_all[ib] += 1
        still = tuple(i for i in range(n) if later_all[i])
        plan.append(_Step(ia, ib, half_edge_id(e, 0), half_edge_id(e, 1), open_a, open_b,
                          by_flags, closing, still))
        if levels.of[a] != levels.of[b]:
            later_poles[ib if levels.of[a] > levels.of[b] else ia] += 1
    plan.reverse()
    idle = [v for v in vids if later_all[index[v]] == 0]

    def viable(i: int, still_open: tuple[int, int]) -> bool:
        p, z, o = pole_mass[i], zero_mass[i], order_sum[i]
        if p > max_deg or z > max_deg:
            return False
        n_open, n_poles = still_open
        if n_poles:
            budget = max_deg - p
            return o - budget - min(n_poles, budget) <= top[i]
        if p < 1 or z > p or o > top[i]:
            return False
        return n_open > 0 or z == p or not marked[i]

    def place(k: int, options):
        """Apply each viable option of edge k in turn, yielding it.  The
        first side is checked once for all its second sides, unless both
        sides sit on one vertex."""
        a, b, open_a, open_b = plan[k].a, plan[k].b, plan[k].open_a, plan[k].open_b
        for (e0, do0, dp0, dz0), seconds in options:
            order_sum[a] += do0
            pole_mass[a] += dp0
            zero_mass[a] += dz0
            if a == b or viable(a, open_a):
                for j, (e1, do1, dp1, dz1) in seconds:
                    order_sum[b] += do1
                    pole_mass[b] += dp1
                    zero_mass[b] += dz1
                    if viable(b, open_b):
                        yield j, e0, e1
                    order_sum[b] -= do1
                    pole_mass[b] -= dp1
                    zero_mass[b] -= dz1
            order_sum[a] -= do0
            pole_mass[a] -= dp0
            zero_mass[a] -= dz0

    memo: dict[tuple, frozenset] = {}

    def completions(k: int) -> frozenset:
        """Zero-flag suffixes, from edge k on, that complete the state."""
        if k == len(plan):
            return frozenset([()])
        key = (k, *((pole_mass[i], zero_mass[i], order_sum[i]) for i in plan[k].still))
        if key not in memo:
            out = set()
            for pair, options in plan[k].by_flags.items():
                rests = set()
                for _ in place(k, options):
                    rests |= completions(k + 1)
                out.update((pair, *rest) for rest in rests)
            memo[key] = frozenset(out)
        return memo[key]

    for flags in sorted(completions(0)):
        zero_marks = frozenset(h for step, pair in zip(plan, flags)
                               for h, z in zip((step.h0, step.h1), pair) if z)
        judge = judge_of(zero_marks) if judge_of is not None else None
        if judge_of is not None and judge is None:
            continue
        orders: dict[str, tuple[int, bool]] = {}
        choice = [0] * len(plan)

        def rec(k: int):
            if k == len(plan):
                if judge is None or all(judge.verdict(v, orders) for v in idle):
                    yield tuple(choice), dict(orders), zero_marks, judge
                return
            step, rest = plan[k], flags[k + 1:]
            for j, e0, e1 in place(k, step.by_flags[flags[k]]):
                if rest not in completions(k + 1):
                    continue
                orders[step.h0] = e0
                orders[step.h1] = e1
                choice[k] = j
                if judge is None or all(judge.verdict(v, orders) for v in step.closing):
                    yield from rec(k + 1)

        yield from rec(0)


def _free_sites(graph: MarkedDualGraph, dec: TwrDecoration) -> list[str]:
    """Site keys of the node preimages that are neither poles nor zeros."""
    out = []
    for e, ends in graph.edges:
        for s, v in enumerate(ends):
            hid = half_edge_id(e, s)
            if not dec.is_pole(hid) and not dec.is_zero_site(v, hid):
                out.append(site_key(v, hid))
    return out


def _solution_space(graph: MarkedDualGraph, levels: LevelStructure, dec: TwrDecoration,
                    filtration: LevelFiltration | None = None) -> AffineSubspace | None:
    """Solution space of the evaluation system; None when it is inconsistent
    or forces a regular node value to zero (a different stratum).

    Depends on ``dec`` only through its zero marks: pole sites sit on the
    lower ends of vertical edges, which the level restriction never
    evaluates, so every symbol of the system is a free site.
    """
    space = evaluation_system(graph, levels, dec, filtration=filtration).solution_space()
    if space is None or any(space.forces_value(s) == 0 for s in space.symbols):
        return None
    return space


def _columns(space: AffineSubspace) -> dict[str, tuple[Fraction, ...]]:
    return {s: space.column(s) for s in space.symbols}


def _forced_groups(free_sites: list[str], columns: dict[str, tuple]) -> list[list[str]]:
    """Partition of the free node-value sites into forced-equal groups.

    Constrained sites are forced equal exactly when their ``columns``
    are equal; every other free site is a group of its own.
    """
    groups: dict[object, list[str]] = {}
    for s in free_sites:
        groups.setdefault(columns.get(s, s), []).append(s)
    return sorted(sorted(g) for g in groups.values())


def _sample_point(space: AffineSubspace, avoid_zero: list[str]) -> dict[str, Fraction]:
    for seed in range(1, 50):
        params = [Fraction(seed + 2 * i + 3) for i in range(space.dim)]
        pt = space.sample(params)
        if all(pt.get(s, Fraction(0)) != 0 for s in avoid_zero if s in pt):
            return pt
    raise RuntimeError("could not sample the solution space away from zero loci")


def _realize_in_order(graph: MarkedDualGraph, dec: TwrDecoration,
                      start: AffineSubspace, order: tuple[str, ...]):
    current = start
    realizations: dict[str, Genus0Realization] = {}
    for v in order:
        zeros: dict[str, int] = {}
        poles: dict[str, int] = {}
        targets: dict[str, Fraction] = {}
        flexible: dict[str, int] = {}
        mults: dict[str, int] = {}
        for l, m in graph.legs_of(v):
            if m > 0:
                zeros[l] = m
            else:
                poles[l] = -m
        for e, s in graph.edges_at(v):
            hid = half_edge_id(e, s)
            o, pole = dec.order_of[hid]
            site = site_key(v, hid)
            if pole:
                poles[site] = -o - 1
                continue
            if dec.is_zero_site(v, hid):
                zeros[site] = o + 1
                continue
            mults[site] = o + 1
            forced = current.forces_value(site) if site in current.symbols else None
            if forced is not None:
                targets[site] = forced
            else:
                flexible[site] = o + 1
        result = realize_component(ComponentShape(v, zeros, poles, targets, flexible, mults))
        if result is None:
            return None
        real, flexvals = result
        realizations[v] = real
        for site, val in sorted(flexvals.items()):
            nxt = current.pinned(site, val)
            if nxt is None:
                return None
            current = nxt
    return realizations, current


def _attempt_witnesses(graph: MarkedDualGraph, dec: TwrDecoration,
                       space: AffineSubspace, groups: list[list[str]]):
    """Exact genus-0 realizations hitting a common solution point.

    Fibers with two or more points on one component are pinned to fresh
    values up front (all constructive strategies accept an arbitrary
    common value); values of fibers spanning several components propagate
    through pinning instead, so the processing order matters and a few
    vertex orders are tried.
    """
    if any(g > 0 for _, g in graph.vertices):
        return None
    if any(m == 0 for _, _, m in graph.legs):
        return None
    current = space
    pin_val = Fraction(5)
    for group in groups:
        if len(group) < 2:
            continue
        hosts = [s.split(":", 1)[0] for s in group]
        if len(set(hosts)) == len(hosts):
            continue  # purely cross-component fiber: let realizations choose
        rep = group[0]
        if rep in current.symbols and current.forces_value(rep) is None:
            nxt = current.pinned(rep, pin_val)
            if nxt is None:
                return None
            current = nxt
            pin_val += 3
    vs = tuple(graph.vertex_ids)
    for order in itertools.islice(itertools.permutations(vs), 720):
        result = _realize_in_order(graph, dec, current, order)
        if result is not None:
            return result
    return None


def _component_verdict(graph: MarkedDualGraph, dec: TwrDecoration, v: str,
                       groups: list[list[str]], cap: int,
                       decided: dict[HurwitzProblem, bool | None]) -> dict | None:
    """Oracle verdict of one component, or None when it fails.

    ``decided`` memoizes ``exists`` under ``cap`` (None: cap exceeded); the
    caller owns it and must not share it across caps.
    """
    try:
        problem = component_problem(graph, dec, v, groups)
    except InfeasibleComponent:
        return None
    ok_rh = rh_check(problem)
    if not ok_rh:
        return None
    if problem not in decided:
        try:
            decided[problem] = exists(problem, cap)
        except DegreeCapExceeded:
            decided[problem] = None
    verdict = decided[problem]
    if verdict is False:
        return None
    return {"problem": problem, "rh": ok_rh, "exists": verdict, "cap_hit": verdict is None}


class _PatternJudge:
    """Solution space and component verdicts of one zero pattern.

    A component's verdict depends only on its own half-edge orders and on
    the pattern's columns, so it is kept per (vertex, local orders).
    """

    def __init__(self, graph: MarkedDualGraph, space: AffineSubspace,
                 zero_marks: frozenset[str], zero_values: dict[str, Fraction],
                 half_edges: dict[str, list[str]],
                 cap: int, decided: dict[HurwitzProblem, bool | None]):
        self.graph, self.space, self.columns = graph, space, _columns(space)
        self.zero_marks, self.zero_values = zero_marks, zero_values
        self.half_edges, self.cap, self.decided = half_edges, cap, decided
        self.verdicts: dict[tuple, dict | None] = {}

    def verdict(self, v: str, orders: dict[str, tuple[int, bool]]) -> dict | None:
        """Oracle verdict of component v under ``orders``; None when it fails."""
        hids = self.half_edges[v]
        local = tuple(orders[h] for h in hids)
        key = (v, local)
        if key not in self.verdicts:
            zeros = [h for h in hids if h in self.zero_marks]
            dec = TwrDecoration.build(dict(zip(hids, local)),
                                      {site_key(v, h): Fraction(0) for h in zeros})
            free = [site_key(v, h) for h, (_, pole) in zip(hids, local)
                    if not pole and h not in self.zero_marks]
            groups = _forced_groups(free, self.columns)
            self.verdicts[key] = _component_verdict(self.graph, dec, v, groups,
                                                    self.cap, self.decided)
        return self.verdicts[key]


def _decoration_key(graph: MarkedDualGraph, levels: LevelStructure,
                    dec: TwrDecoration) -> tuple:
    def edge_data(e, s):
        hid = half_edge_id(e, s)
        o, p = dec.order_of[hid]
        v = graph.edge_ends[e][s]
        return (o, p, dec.is_zero_site(v, hid))

    return canonical_key(graph, levels, edge_data=edge_data)


def _certificate(graph: MarkedDualGraph, levels: LevelStructure, dec: TwrDecoration,
                 judge: _PatternJudge) -> ClosureCertificate:
    space = judge.space
    free = _free_sites(graph, dec)
    groups = _forced_groups(free, judge.columns)
    comps = {v: judge.verdict(v, dec.order_of) for v in graph.vertex_ids}
    witness = _attempt_witnesses(graph, dec, space, groups)
    if witness is not None:
        realizations, pinned = witness
        sample = {s: pinned.particular.get(s, Fraction(0)) for s in space.symbols}
        verdict = "accepted-exact"
        notes = []
    else:
        realizations = None
        sample = _sample_point(space, free)
        verdict = "accepted-modulo-genericity"
        notes = ["no exact realization witness; component existence by "
                 "Hurwitz oracle and value-genericity"]
    if any(info["cap_hit"] for info in comps.values()):
        notes = [*notes, "hurwitz degree cap exceeded on some component"]
    return ClosureCertificate(
        levels=levels, decoration=dec,
        solution_dim=space.dim, sample=sample,
        forced_groups=[g for g in groups if len(g) > 1],
        components=comps, realizations=realizations,
        verdict=verdict, notes=notes)


def search(graph: MarkedDualGraph, mu: tuple[int, ...] | None = None,
           bounds: SearchBounds | None = None) -> list[ClosureCertificate]:
    """All certificate candidates within bounds, deduplicated up to
    level-graph isomorphism, in canonical order.

    Each isomorphism class is represented by its candidate of least rank:
    the level structure's index, then the decoration's rank.
    """
    bounds = bounds or SearchBounds()
    rep = validate(graph)
    if not rep.ok:
        raise ValueError(f"invalid graph: {rep.errors}")
    if not rep.stable:
        raise ValueError(f"graph not stable at {rep.unstable_vertices}")
    if mu is not None and sorted(mu) != sorted(graph.mu):
        raise ValueError(f"mu {mu} does not match the graph legs {graph.mu}")
    if sum(graph.mu) != 0:
        raise ValueError("legs must carry a partition of zero")
    positive = sum(m for m in graph.mu if m > 0)
    max_deg = bounds.max_degree or max(1, positive)
    half_edges = {v: [half_edge_id(e, s) for e, s in graph.edges_at(v)]
                  for v in graph.vertex_ids}

    best: dict[tuple, tuple] = {}
    decided: dict[HurwitzProblem, bool | None] = {}
    for li, levels in enumerate(enumerate_level_structures(graph, cap=bounds.level_cap)):
        filtration = None

        def judge_of(zero_marks):
            nonlocal filtration
            if filtration is None:
                # resolved through the module, so that per-layer tracing
                # (perfbench/tracing.py) counts it
                filtration = homology.level_filtration(graph, levels)
            # the system reads a decoration only through its zero marks
            values = {site_key(graph.half_edge_vertex(h), h): Fraction(0) for h in zero_marks}
            space = _solution_space(graph, levels, TwrDecoration.build({}, values), filtration)
            if space is None:
                return None
            return _PatternJudge(graph, space, zero_marks, values, half_edges,
                                 bounds.hurwitz_cap, decided)

        for rank, orders, _, judge in _decorations(graph, levels, max_deg, judge_of):
            dec = TwrDecoration.build(orders, judge.zero_values)
            key = _decoration_key(graph, levels, dec)
            rank = (li, rank)
            if key not in best or rank < best[key][0]:
                best[key] = (rank, levels, dec, judge)
    return [_certificate(graph, *best[k][1:]) for k in sorted(best)]


def verify_certificate(graph: MarkedDualGraph, mu: tuple[int, ...],
                       cert: ClosureCertificate,
                       hurwitz_cap: int = DEFAULT_HURWITZ_CAP) -> dict:
    """Re-run every check of a certificate, deciding components under the
    Hurwitz cap the search ran with; verdicts: accepted-exact,
    accepted-modulo-genericity, or rejected with reasons."""
    reasons: list[str] = []
    rep = validate(graph)
    if not rep.ok or not rep.stable:
        reasons.append("graph invalid or unstable")
    if sorted(mu) != sorted(graph.mu):
        reasons.append("mu does not match graph legs")
    try:
        cert.levels.check_normalized(graph)
    except ValueError as exc:
        reasons.append(str(exc))
    if reasons:
        return {"verdict": "rejected", "reasons": reasons}
    twr = validate_twr(graph, cert.levels, cert.decoration)
    if not twr.ok:
        reasons.append(f"decoration invalid: {twr.violations}")
        return {"verdict": "rejected", "reasons": reasons}
    system = evaluation_system(graph, cert.levels, cert.decoration)
    space = system.solution_space()
    if space is None:
        reasons.append("evaluation system inconsistent")
        return {"verdict": "rejected", "reasons": reasons}
    for row in system.all_rows():
        sub = row.substitute(cert.sample)
        if not (sub.is_constant and sub.const == 0):
            reasons.append(f"sample does not satisfy {row.render()}")
    free = _free_sites(graph, cert.decoration)
    for site in free:
        if cert.sample.get(site, Fraction(1)) == 0:
            reasons.append(f"regular node value vanishes at {site}")
    groups = _forced_groups(free, _columns(space))
    decided: dict[HurwitzProblem, bool | None] = {}
    if any(_component_verdict(graph, cert.decoration, v, groups, hurwitz_cap, decided) is None
           for v in graph.vertex_ids):
        reasons.append("component ramification data infeasible")
    if reasons:
        return {"verdict": "rejected", "reasons": reasons}
    if cert.realizations is not None:
        for v, real in cert.realizations.items():
            # zeros may be partly unlocated (unmarked), never overfull
            if sum(real.zeros.values()) > sum(real.poles.values()):
                reasons.append(f"realization on {v} has unbalanced divisor")
        if reasons:
            return {"verdict": "rejected", "reasons": reasons}
        return {"verdict": "accepted-exact", "reasons": []}
    return {"verdict": "accepted-modulo-genericity", "reasons": []}
