"""Membership search for closures of double ramification loci.

A stable marked dual graph lies in the closure exactly when some level
structure carries an inequality-form decoration whose evaluation system
vanishes identically, with every component's ramification data realizable.
The search computes each quantity once, at the stage it depends on:

1. Only level structures where each vertex has a leg of mu < 0 or a
   neighbour on a strictly higher level: df has a pole on every component,
   at a pole leg or at the lower end of a vertical edge.
2. Per normalized level structure, the zero patterns (which node
   preimages are nodal zeros): the product of each vertex's zero flags
   that some orders of its own half-edges complete (per-vertex divisor
   balance and order deficit), a superset of the patterns of admissible
   order assignments (poles only on strictly lower ends, order sums
   >= -2) that stage 4 makes exact; and the undecorated evaluation rows,
   built from the level filtration.
3. Per zero set at the sites the level structure's rows mention, the
   exact solution space of the rows with those zeros substituted, the
   test that no regular node value is forced to zero, and each
   constrained site's column (sites are forced equal exactly when their
   columns are).  Other zeros change no row and pole sites are never
   evaluated, so every zero pattern with that set shares them.
4. Per pattern, the orders are placed edge by edge over the admissible
   option pairs of the edge's kind (horizontal, or which end is upper;
   tabulated once per kind and degree bound), so a pattern without a
   decoration yields nothing.  An option is placed only when both ends'
   local orders still complete, over the vertex's own half-edges, to
   orders passing the viability tests and then the component verdict
   (feasible, Riemann-Hurwitz, exists).  Each component is compiled once
   per ``search`` call (not per graph: verification compiles its own);
   each distinct problem is decided once per graph; a problem beyond the
   degree cap does not cut.
5. Per isomorphism class, the candidate of least rank (level structure
   index, then per edge in graph order the index of its option) is
   kept, so the traversal order does not change the result.  Genus-0-only
   representatives are upgraded to exact certificates when explicit
   rational witnesses exist.

Every candidate the enumeration yields passes ``validate_twr`` by
construction, except on a lone vertex without half-edges, whose missing
pole the component check rejects; ``verify_certificate`` re-runs it, and
every other check, on each certificate.  A component's Hurwitz problem,
free sites and witness read only its genus and divisor, read once per
certificate: by the search as it builds it, by the verifier from the
``validate_twr`` report.  Pure stages are memoized on the graph object
(``graph.memos``) until the graph is dropped.  ``search`` and every
verification share the graph's ``validate`` report, the ``exists`` answer
per Hurwitz problem (looked up only within the cap), and the undecorated
evaluation rows per level structure (when it returns, the search keeps
only its certificates' level structures).  The solved system per
certificate (level structure and values) is memoized for verifications
only; the search keeps its solves per level structure.

Completeness boundary: node multiplicities are capped by the total
positive mu mass (or an explicit bound), and component realizability
beyond the Hurwitz degree cap is reported, not decided.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .decorations import TwrDecoration, component_divisor, site_key, validate_twr
from .exact import AffineSubspace, format_rational
from .graphs import (LevelStructure, MarkedDualGraph, canonical_key,
                     enumerate_level_structures, half_edge_id, validate)
from .homology import evaluation_system, solved_rows
from .hurwitz import (DEFAULT_DEGREE_CAP, Genus0Realization, InfeasibleComponent,
                      component_problem, exists, rh_check)
from .witnesses import ComponentShape, realize_component


@dataclass(frozen=True)
class SearchBounds:
    max_degree: int | None = None
    hurwitz_cap: int = DEFAULT_DEGREE_CAP
    level_cap: int = 200_000

    def __post_init__(self):
        for key, value in vars(self).items():  # max_degree None: the largest positive mu
            if value is not None and value < 1:
                raise ValueError(f"bound {key} must be a positive integer, got {value!r}")

    @staticmethod
    def from_strings(items) -> "SearchBounds":
        values = {}
        for item in items or []:
            key, _, val = item.partition("=")
            key = key.replace("-", "_")
            if key not in SearchBounds.__dataclass_fields__:
                raise ValueError(f"unknown bound {key!r}")
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(f"bound {key} must be a positive integer, got {val!r}") from None
        return SearchBounds(**values)


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


@functools.cache
def _edge_tables(upper: int | None, max_deg: int) -> tuple[dict, dict]:
    """Read-only tables of an edge kind (``upper``: the side of the upper
    end, None when horizontal).  Per zero-flag pair, the admissible pairs of
    the two sides' (order, pole), grouped by their first side and indexed in
    the kind's option order; per side and its own zero flag, the orders it
    can take and their (P, Z, O) adds."""
    def side(opt: tuple[int, bool, bool]):
        o, pole, zmark = opt
        return (o, pole), (-o - 1 if pole else 0, o + 1 if zmark else 0, o)

    regular = [(o, False, zmark) for o in range(max_deg) for zmark in (False, True)]
    poles = [(-m - 1, True, False) for m in range(1, max_deg + 1)]
    if upper is None:
        opts = list(itertools.product(regular, repeat=2))
    else:
        opts = [(su, sl) if upper == 0 else (sl, su)
                for su in regular for sl in regular + poles if su[0] + sl[0] >= -2]
    by_flags: dict[tuple[bool, bool], dict] = {}
    own: dict[tuple[int, bool], dict] = {}
    for j, (s0, s1) in enumerate(opts):
        by_flags.setdefault((s0[2], s1[2]), {}).setdefault(s0[:2], []).append((j, s1[:2]))
        for s, opt in enumerate((s0, s1)):
            own.setdefault((s, opt[2]), {}).setdefault(*side(opt))
    return {pair: list(firsts.items()) for pair, firsts in by_flags.items()}, own


def _decorations(graph: MarkedDualGraph, levels: LevelStructure,
                 max_deg: int, judge_of):
    """All admissible decorations, zero pattern by zero pattern.

    Yields (rank, orders, zero marks, judge).  The rank is the tuple, over
    edges in graph order, of the chosen option's index in the option order
    of ``_edge_tables``, so sorting by rank gives the plain enumeration's
    order.

    Per vertex the walk tracks the pole mass P and the zero mass Z (legs
    included), the order sum O (a leg of mu m counts m - 1), the half-edges
    still open, and how many of those can still be poles (the lower ends of
    vertical edges).  Regular orders are >= 0 and a pole of mass m adds
    -(m+1) to O, so a vertex can no longer close (``viable`` fails) when
    P > max_deg or Z > max_deg; when no pole can come and P < 1, Z > P or
    O > 2g-2; when poles can still come but even the remaining pole budget
    B = max_deg - P spent on min(open poles, B) poles leaves
    O - B - min(open poles, B) > 2g-2; and, once closed, when a vertex with
    a marked zero has Z != P.

    First, per vertex, the zero flags of its own half-edges that some
    orders of those half-edges complete, passing ``viable`` after each
    one; the zero patterns (which node preimages are nodal zeros) are the
    product of these per-vertex choices.  That is a superset of the
    patterns with an admissible decoration: it ignores only that a pole of
    mass m on the lower end of an edge needs an order >= m - 1 on the upper
    end.  The output stays exact, because the walk below places only
    ``_edge_tables`` pairs, so a pattern without a decoration yields
    nothing.  Then, pattern by pattern, the edges are placed one by one, an
    option only when the new local orders of both ends are ``feasible``:
    some values of the vertex's other half-edges under its own zero flags
    pass ``viable`` after each one and, once it is closed, the judge.
    ``judge_of`` maps a pattern to its judge, or to None to skip the
    pattern; a closed vertex fails when ``judge.verdict(v, orders)`` is
    None, and the judge's ``columns`` (site to column id) give the forced
    groups a vertex's answers depend on.  A vertex without half-edges is
    judged at the leaf.
    """
    vids = graph.vertex_ids
    index = {v: i for i, v in enumerate(vids)}
    n = len(index)
    top = [2 * g - 2 for _, g in graph.vertices]
    # per vertex, (P, Z, O) of its legs
    mass, marked = [(0, 0, 0)] * n, [False] * n
    for _, v, m in graph.legs:
        i = index[v]
        p, z, o = mass[i]
        mass[i] = (p - m, z, o + m - 1) if m < 0 else (p, z + m, o + m - 1)
        marked[i] = marked[i] or m > 0

    # per vertex, its half-edges in walk order (that of graph.edges_at): their
    # site keys and slots (edge index, side, whether it can be a pole: the
    # lower end of a vertical edge)
    hids, sites, slots = [[] for _ in vids], [[] for _ in vids], [[] for _ in vids]
    for k, (e, ends) in enumerate(graph.edges):
        for s, v in enumerate(ends):
            h, i = half_edge_id(e, s), index[v]
            hids[i].append(h)
            sites[i].append(site_key(v, h))
            slots[i].append((k, s, levels.of[v] < levels.of[ends[1 - s]]))
    # after each slot, the half-edges still open at its vertex: all, and possible poles
    after: dict[tuple, tuple[int, int]] = {}
    for slot in slots:
        for t, x in enumerate(slot):
            after[x[:2]] = len(slot) - t - 1, sum(y[2] for y in slot[t + 1:])
    # per edge, its end vertices, half-edges and options by zero-flag pair
    plan = []
    # per edge, per side and its own zero flag, the orders it can take and their adds
    own: list[dict] = []
    for e, (a, b) in graph.edges:
        la, lb = levels.of[a], levels.of[b]
        by_flags, sides = _edge_tables(None if la == lb else int(lb > la), max_deg)
        own.append(sides)
        plan.append((index[a], index[b], half_edge_id(e, 0), half_edge_id(e, 1), by_flags))
    idle = [v for v, s in zip(vids, slots) if not s]

    def viable(i: int, p: int, z: int, o: int, still_open: tuple[int, int]) -> bool:
        if p > max_deg or z > max_deg:
            return False
        n_open, n_poles = still_open
        if n_poles:
            budget = max_deg - p
            return o - budget - min(n_poles, budget) <= top[i]
        if p < 1 or z > p or o > top[i]:
            return False
        return n_open > 0 or z == p or not marked[i]

    @functools.cache
    def flag_choices(i: int, t: int, p: int, z: int, o: int) -> frozenset:
        """Own zero-flag suffixes of vertex i, from its slot t on, that some
        orders complete from (P, Z, O), passing ``viable`` after each slot."""
        if t == len(slots[i]):
            return frozenset([()])
        k, s, _ = slots[i][t]
        out = set()
        for flag in (False, True):
            for dp, dz, do in own[k][s, flag].values():
                if viable(i, p + dp, z + dz, o + do, after[k, s]):
                    out.update((flag, *rest)
                               for rest in flag_choices(i, t + 1, p + dp, z + dz, o + do))
        return frozenset(out)

    def feasible(i: int, prefix: tuple) -> bool:
        """Whether vertex i, with the orders ``prefix`` on its first half-edges,
        passes ``viable`` and completes over its other slots' values to orders
        passing it after each one and, once closed, the judge (memoized)."""
        known, values = vertex[i]
        ok = known.get(prefix)
        if ok is None:
            p, z, o = mass[i]
            for e, adds in zip(prefix, values):
                dp, dz, do = adds[e]
                p, z, o = p + dp, z + dz, o + do
            t = len(prefix)
            ok = viable(i, p, z, o, after[slots[i][t - 1][:2]])
            if ok and t == len(values):
                ok = bool(judge.verdict(vids[i], dict(zip(hids[i], prefix))))
            elif ok:
                ok = any(feasible(i, (*prefix, e)) for e in values[t])
            known[prefix] = ok
        return ok

    # per vertex, its own zero flags and forced groups (all a verdict reads of
    # the pattern) -> its answers, and per slot the orders allowed and their adds
    tables: dict[tuple, tuple[dict[tuple, bool], list[dict]]] = {}
    try:
        choices = [sorted(flag_choices(i, 0, *mass[i])) for i in range(n)]
        for pattern in itertools.product(*choices):
            flag = {x[:2]: f for slot, fs in zip(slots, pattern) for x, f in zip(slot, fs)}
            zero_marks = frozenset(h for hs, fs in zip(hids, pattern)
                                   for h, f in zip(hs, fs) if f)
            judge = judge_of(zero_marks)
            if judge is None:
                continue
            vertex = []
            for i, slot in enumerate(slots):
                classes = list(map(judge.columns.get, sites[i], sites[i]))
                key = (i, pattern[i], *map(classes.index, classes))
                if key not in tables:
                    tables[key] = ({}, [own[k][s, f] for (k, s, _), f in zip(slot, pattern[i])])
                vertex.append(tables[key])
            orders: dict[str, tuple[int, bool]] = {}
            choice = [0] * len(plan)
            prefix: list[tuple] = [()] * n

            def rec(k: int):
                if k == len(plan):
                    if all(judge.verdict(v, orders) for v in idle):
                        yield tuple(choice), dict(orders), zero_marks, judge
                    return
                a, b, h0, h1, by_flags = plan[k]
                before_a, before_b = prefix[a], prefix[b]
                for e0, seconds in by_flags[flag[k, 0], flag[k, 1]]:
                    pa = (*before_a, e0)
                    if a != b and not feasible(a, pa):
                        continue
                    for j, e1 in seconds:
                        pb = (*(pa if a == b else before_b), e1)
                        if feasible(b, pb):
                            prefix[a], prefix[b] = pa, pb
                            orders[h0], orders[h1], choice[k] = e0, e1, j
                            yield from rec(k + 1)
                prefix[a], prefix[b] = before_a, before_b

            yield from rec(0)
    finally:  # the recursive closures refer to themselves: free them without the collector
        rec = flag_choices = feasible = None


def _graph_report(graph: MarkedDualGraph):
    """``validate(graph)``, memoized per graph."""
    memo = graph.memos["validate"]
    if () not in memo:
        memo[()] = validate(graph)
    return memo[()]


def _solved_system(graph: MarkedDualGraph, levels: LevelStructure, dec: TwrDecoration):
    """``solved_rows`` for the exact values of ``dec``: the rows of its
    evaluation system and their solution space (None when inconsistent),
    memoized per graph by every input the system reads: the levels and
    the values."""
    key = levels, dec.values
    memo = graph.memos["solved_system"]
    if key not in memo:
        memo[key] = solved_rows(graph, levels, dec.value_of)
    return memo[key]


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


def _realize_in_order(divisors: dict[str, tuple], start: AffineSubspace, order: tuple):
    current = start
    realizations: dict[str, Genus0Realization] = {}
    for v in order:
        zeros, poles, mults = divisors[v]
        targets: dict[str, Fraction] = {}
        flexible: dict[str, int] = {}
        for site, m in mults.items():
            forced = current.forces_value(site) if site in current.symbols else None
            if forced is not None:
                targets[site] = forced
            else:
                flexible[site] = m
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


def _attempt_witnesses(divisors: dict[str, tuple], space: AffineSubspace,
                       groups: list[list[str]]):
    """Exact realizations of genus-0 components, given by their divisors,
    hitting a common solution point.

    Fibers with two or more points on one component are pinned to fresh
    values up front (all constructive strategies accept an arbitrary
    common value); values of fibers spanning several components propagate
    through pinning instead, so the processing order matters and a few
    vertex orders are tried.  A leg of mu 0 (a zero of multiplicity 0)
    has no witness.
    """
    if any(0 in zeros.values() for zeros, _, _ in divisors.values()):
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
    for order in itertools.islice(itertools.permutations(divisors), 720):
        result = _realize_in_order(divisors, current, order)
        if result is not None:
            return result
    return None


def _component_verdict(graph: MarkedDualGraph, v: str, divisor: tuple,
                       groups: list[list[str]], cap: int) -> dict | None:
    """Oracle verdict of component v with the given divisor, or None when
    it fails.

    ``exists`` answers are memoized per graph by problem, looked up only
    within the cap, where they do not depend on it (beyond it: None)."""
    try:
        problem = component_problem(graph.genus_of[v], divisor, groups)
    except InfeasibleComponent:
        return None
    ok_rh = rh_check(problem)
    if not ok_rh:
        return None
    answers = graph.memos["exists"]
    if problem.degree <= cap and problem not in answers:
        answers[problem] = exists(problem, cap)
    verdict = answers[problem] if problem.degree <= cap else None
    if verdict is False:
        return None
    return {"problem": problem, "rh": ok_rh, "exists": verdict, "cap_hit": verdict is None}


class _PatternJudge:
    """Component verdicts of one zero pattern, and its solution space and column ids.

    A component's verdict depends only on its own half-edge orders and
    nodal zeros and on the forced groups among its free sites; the search's
    ``compiled`` keeps it by those inputs, across patterns and level
    structures.
    """

    def __init__(self, graph: MarkedDualGraph, solved: tuple[AffineSubspace, dict],
                 zero_marks: frozenset[str], zero_values: dict[str, Fraction],
                 half_edges: dict[str, list[str]], cap: int, compiled: dict):
        self.graph, (self.space, self.columns) = graph, solved
        self.zero_marks, self.zero_values = zero_marks, zero_values
        self.half_edges, self.cap, self.compiled = half_edges, cap, compiled

    def verdict(self, v: str, orders: dict[str, tuple[int, bool]]) -> dict | None:
        """Oracle verdict of component v under ``orders``; None when it fails."""
        hids = self.half_edges[v]
        local = tuple(orders[h] for h in hids)
        zeros = [h for h in hids if h in self.zero_marks]
        free = [site_key(v, h) for h, (_, pole) in zip(hids, local)
                if not pole and h not in self.zero_marks]
        groups = _forced_groups(free, self.columns)
        inputs = (v, local, tuple(zeros), tuple(map(tuple, groups)), self.cap)
        if inputs not in self.compiled:
            dec = TwrDecoration.build(dict(zip(hids, local)),
                                      {site_key(v, h): Fraction(0) for h in zeros})
            self.compiled[inputs] = _component_verdict(
                self.graph, v, component_divisor(self.graph, dec, v), groups, self.cap)
        return self.compiled[inputs]


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
    divisors = {v: component_divisor(graph, dec, v) for v in graph.vertex_ids}
    free = [s for _, _, sites in divisors.values() for s in sites]
    groups = _forced_groups(free, judge.columns)
    comps = {v: judge.verdict(v, dec.order_of) for v in graph.vertex_ids}
    witness = None if any(g for _, g in graph.vertices) else _attempt_witnesses(
        divisors, space, groups)
    if witness is not None:
        realizations, pinned = witness
        sample = {s: pinned.particular.get(s, Fraction(0)) for s in space.symbols}
        verdict, notes = "accepted-exact", []
    else:
        realizations, sample = None, _sample_point(space, free)
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
    rep = _graph_report(graph)
    if not rep.ok:
        raise ValueError(f"invalid graph: {rep.errors}")
    if not rep.stable:
        raise ValueError(f"graph not stable at {rep.unstable_vertices}")
    if mu is not None and sorted(mu) != sorted(graph.mu):
        raise ValueError(f"mu {mu} does not match the graph legs {graph.mu}")
    if sum(graph.mu) != 0:
        raise ValueError("legs must carry a partition of zero")
    positive = sum(m for m in graph.mu if m > 0)
    max_deg = bounds.max_degree if bounds.max_degree is not None else max(1, positive)
    half_edges = {v: [half_edge_id(e, s) for e, s in graph.edges_at(v)]
                  for v in graph.vertex_ids}

    best: dict[tuple, tuple] = {}
    structures = enumerate_level_structures(graph, cap=bounds.level_cap, pole_carrying=True)
    compiled: dict[tuple, dict | None] = {}  # component verdicts of this search, by input
    for li, levels in enumerate(structures):
        # the sites the rows mention, read once the first pattern builds the rows;
        # the decoration None is positional because perfbench's tracer reads it there
        mentioned = functools.cache(lambda: {
            s for rows in evaluation_system(graph, levels, None).values()
            for r in rows for s, _ in r.coeffs})

        @functools.cache
        def solved(constrained: frozenset[str]):
            # a zero set forcing a regular node value to zero lies in a different stratum
            _, space = solved_rows(graph, levels, dict.fromkeys(constrained, Fraction(0)))
            if space is None or any(space.forces_value(s) == 0 for s in space.symbols):
                return None
            ids: dict[tuple, int] = {}  # equal columns, equal ids: cheaper to hash than Fractions
            return space, {s: ids.setdefault(space.column(s), len(ids)) for s in space.symbols}

        def judge_of(zero_marks):
            # the rows read a pattern only through its zeros at the sites they mention
            values = {site_key(graph.half_edge_vertex(h), h): Fraction(0) for h in zero_marks}
            shared = solved(frozenset(mentioned().intersection(values)))
            return shared and _PatternJudge(graph, shared, zero_marks, values, half_edges,
                                            bounds.hurwitz_cap, compiled)

        for rank, orders, _, judge in _decorations(graph, levels, max_deg, judge_of):
            dec = TwrDecoration.build(orders, judge.zero_values)
            key = _decoration_key(graph, levels, dec)
            rank = (li, rank)
            if key not in best or rank < best[key][0]:
                best[key] = (rank, levels, dec, judge)
    certs = [_certificate(graph, *best[k][1:]) for k in sorted(best)]
    rows = graph.memos["level_rows"]  # keep the rows a verification of these reads
    graph.memos["level_rows"] = {c.levels: rows[c.levels] for c in certs}
    return certs


def verify_certificate(graph: MarkedDualGraph, mu: tuple[int, ...],
                       cert: ClosureCertificate,
                       hurwitz_cap: int = DEFAULT_DEGREE_CAP) -> dict:
    """Re-run every check of a certificate, deciding components under the
    Hurwitz cap the search ran with; verdicts: accepted-exact,
    accepted-modulo-genericity, or rejected with reasons."""
    reasons: list[str] = []
    rep = _graph_report(graph)
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
    symbolic = sorted(s for s, x in cert.decoration.values if isinstance(x, str))
    if symbolic:
        reasons.append(f"symbolic node values at {symbolic}; certificates carry exact values")
    if reasons:
        return {"verdict": "rejected", "reasons": reasons}
    rows, space = _solved_system(graph, cert.levels, cert.decoration)
    if space is None:
        reasons.append("evaluation system inconsistent")
        return {"verdict": "rejected", "reasons": reasons}
    for row in rows:
        sub = row.substitute(cert.sample)
        if not (sub.is_constant and sub.const == 0):
            reasons.append(f"sample does not satisfy {row.render()}")
    free = [s for _, _, sites in twr.divisors.values() for s in sites]
    for site in free:
        if cert.sample.get(site, Fraction(1)) == 0:
            reasons.append(f"regular node value vanishes at {site}")
    groups = _forced_groups(free, {s: space.column(s) for s in space.symbols})
    if any(_component_verdict(graph, v, divisor, groups, hurwitz_cap) is None
           for v, divisor in twr.divisors.items()):
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
