"""Membership search for closures of double ramification loci.

A stable marked dual graph lies in the closure exactly when some level
structure carries an inequality-form decoration whose evaluation system
vanishes identically, with every component's ramification data realizable.
The search computes each quantity once, at the stage it depends on:

1. Per normalized level structure, the admissible half-edge order
   assignments within degree bounds (poles only on strictly lower ends,
   order sums >= -2, per-vertex divisor balance and order deficit).  The
   cuts of ``_decorations`` drop only branches without an admissible
   completion, so candidates arrive in the order of the plain enumeration
   and the certificate kept per isomorphism class does not change.
2. Per zero pattern (which node preimages are nodal zeros), the exact
   solution space of the evaluation system and the test that no regular
   node value is forced to zero.  Pole sites sit on the lower ends of
   vertical edges, which the level restriction never evaluates, so the
   system reads a decoration only through its zero marks.
3. Per candidate, the forced value coincidences, compiled into
   per-component Hurwitz problems; each distinct problem is decided once
   per search.  Genus-0-only candidates are upgraded to exact
   certificates when explicit rational witnesses exist.

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

from .decorations import TwrDecoration, site_key, validate_twr
from .exact import AffineSubspace, format_rational
from .graphs import (LevelStructure, MarkedDualGraph, canonical_key,
                     enumerate_level_structures, half_edge_id, validate)
from .homology import evaluation_system
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
        dec = self.decoration

        def edge_data(e, s):
            hid = half_edge_id(e, s)
            o, p = dec.order_of[hid]
            v = graph.edge_ends[e][s]
            return (o, p, dec.is_zero_site(v, hid))

        return canonical_key(graph, self.levels, edge_data=edge_data)

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


def _decorations(graph: MarkedDualGraph, levels: LevelStructure,
                 max_deg: int):
    """All admissible decorations as (orders, zero marks), edge by edge.

    Per vertex the enumeration tracks the pole mass P and the zero mass Z
    (legs included), the order sum O (a leg of mu m counts m - 1), the
    half-edges still open, and how many of those can still be poles (the
    lower ends of vertical edges).  Regular orders are >= 0 and a pole of
    mass m adds -(m+1) to O, so a vertex can no longer close, and the
    branch is cut, when P > max_deg or Z > max_deg; when no pole can come
    and P < 1, Z > P or O > 2g-2; when poles can still come but even the
    remaining pole budget B = max_deg - P spent on min(open poles, B)
    poles leaves O - B - min(open poles, B) > 2g-2; and, once closed,
    when a vertex with a marked zero has Z != P.  Each cut removes only
    branches without an admissible completion, so the yields, and their
    order, are those of the plain product over edges in graph order.
    """
    index = {v: i for i, v in enumerate(graph.vertex_ids)}
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
        return (o, pole), zmark, o, -o - 1 if pole else 0, o + 1 if zmark else 0

    # walking the edges backwards, count per vertex the half-edges on the
    # edges placed after the current one, and how many of them can be poles
    later_all, later_poles = [0] * n, [0] * n
    plan = []
    for e, (a, b) in reversed(graph.edges):
        ia, ib = index[a], index[b]
        options = [(side(s0), side(s1)) for s0, s1 in _edge_options(graph, levels, e, max_deg)]
        plan.append((ia, ib, half_edge_id(e, 0), half_edge_id(e, 1),
                     (later_all[ia], later_poles[ia]), (later_all[ib], later_poles[ib]), options))
        later_all[ia] += 1
        later_all[ib] += 1
        if levels.of[a] != levels.of[b]:
            later_poles[ib if levels.of[a] > levels.of[b] else ia] += 1
    plan.reverse()

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

    orders: dict[str, tuple[int, bool]] = {}
    zero_marks: set[str] = set()

    def rec(k: int):
        if k == len(plan):
            yield dict(orders), set(zero_marks)
            return
        a, b, h0, h1, open_a, open_b, options = plan[k]
        for (e0, z0, do0, dp0, dz0), (e1, z1, do1, dp1, dz1) in options:
            order_sum[a] += do0
            pole_mass[a] += dp0
            zero_mass[a] += dz0
            order_sum[b] += do1
            pole_mass[b] += dp1
            zero_mass[b] += dz1
            if viable(a, open_a) and (a == b or viable(b, open_b)):
                orders[h0] = e0
                orders[h1] = e1
                if z0:
                    zero_marks.add(h0)
                if z1:
                    zero_marks.add(h1)
                yield from rec(k + 1)
                zero_marks.discard(h0)
                zero_marks.discard(h1)
            order_sum[a] -= do0
            pole_mass[a] -= dp0
            zero_mass[a] -= dz0
            order_sum[b] -= do1
            pole_mass[b] -= dp1
            zero_mass[b] -= dz1

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


def _solution_space(graph: MarkedDualGraph, levels: LevelStructure,
           dec: TwrDecoration) -> AffineSubspace | None:
    """Solution space of the evaluation system; None when it is inconsistent
    or forces a regular node value to zero (a different stratum).

    Depends on ``dec`` only through its zero marks: pole sites sit on the
    lower ends of vertical edges, which the level restriction never
    evaluates, so every symbol of the system is a free site.
    """
    space = evaluation_system(graph, levels, dec).solution_space()
    if space is None or any(space.forces_value(s) == 0 for s in space.symbols):
        return None
    return space


def _forced_groups(free_sites: list[str], space: AffineSubspace) -> list[list[str]]:
    """Partition of the free node-value sites into forced-equal groups."""
    parent = {s: s for s in free_sites}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    constrained = set(space.symbols)
    for s1, s2 in itertools.combinations(free_sites, 2):
        if s1 in constrained and s2 in constrained and space.forces_equal(s1, s2):
            parent[find(s1)] = find(s2)
    groups: dict[str, list[str]] = {}
    for s in free_sites:
        groups.setdefault(find(s), []).append(s)
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


def _component_verdicts(graph: MarkedDualGraph, dec: TwrDecoration,
                        groups: list[list[str]], cap: int,
                        decided: dict[HurwitzProblem, bool | None]) -> dict[str, dict] | None:
    """Per-component oracle verdicts, or None when some component fails.

    ``decided`` memoizes ``exists`` under ``cap`` (None: cap exceeded); the
    caller owns it and must not share it across caps.
    """
    out: dict[str, dict] = {}
    for v, _ in graph.vertices:
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
        out[v] = {"problem": problem, "rh": ok_rh, "exists": verdict,
                  "cap_hit": verdict is None}
    return out


def search(graph: MarkedDualGraph, mu: tuple[int, ...] | None = None,
           bounds: SearchBounds | None = None) -> list[ClosureCertificate]:
    """All certificate candidates within bounds, deduplicated up to
    level-graph isomorphism, in canonical order."""
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

    found: dict[tuple, ClosureCertificate] = {}
    decided: dict[HurwitzProblem, bool | None] = {}
    for levels in enumerate_level_structures(graph, cap=bounds.level_cap):
        solved: dict[frozenset[str], AffineSubspace | None] = {}
        for orders, zero_marks in _decorations(graph, levels, max_deg):
            dec = TwrDecoration.build(orders, {
                site_key(graph.half_edge_vertex(hid), hid): Fraction(0) for hid in zero_marks})
            pattern = frozenset(zero_marks)
            if pattern not in solved:
                solved[pattern] = _solution_space(graph, levels, dec)
            space = solved[pattern]
            if space is None:
                continue
            free = _free_sites(graph, dec)
            groups = _forced_groups(free, space)
            comps = _component_verdicts(graph, dec, groups, bounds.hurwitz_cap, decided)
            if comps is None:
                continue
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
            cert = ClosureCertificate(
                levels=levels, decoration=dec,
                solution_dim=space.dim, sample=sample,
                forced_groups=[g for g in groups if len(g) > 1],
                components=comps, realizations=realizations,
                verdict=verdict, notes=notes)
            key = cert.key(graph)
            if key not in found:
                found[key] = cert
    return [found[k] for k in sorted(found)]


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
    groups = _forced_groups(free, space)
    comps = _component_verdicts(graph, cert.decoration, groups, hurwitz_cap, {})
    if comps is None:
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
