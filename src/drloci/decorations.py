"""Decorations of level graphs by order data of rational functions.

A decoration assigns to every half-edge the order of the exact
differential at the corresponding node preimage together with a pole
flag (the two-branched order formula makes the pair equivalent to a
multiplicity), and optionally exact or symbolic values of the function
at node preimages.  Leg orders are carried by the graph's mu labels.
Node preimages with value 0 are "nodal zeros" and enter the per-vertex
divisor balance; they are recorded through the value assignment.

Validation comes in two strengths: the inequality form (edge order sums
>= -2, poles strictly descending) and the fully marked form used after
twisting (order sums exactly -2, no horizontal edges, per-vertex order
identity, positive extra critical legs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact import format_rational, parse_rational
from .graphs import LevelStructure, MarkedDualGraph, half_edge_id, json_int, split_half_edge


def site_key(vertex: str, point: str) -> str:
    return f"{vertex}:{point}"


@dataclass(frozen=True)
class TwrDecoration:
    """Half-edge order data plus an optional value assignment.

    ``orders`` maps half-edge ids ("<edge>.<side>") to (ord_df, pole).
    ``values`` maps site keys "<vertex>:<point>" to exact rationals or to
    symbolic unknowns (strings starting with "?").  A site with value 0
    is a nodal zero of the function.
    """

    orders: tuple[tuple[str, tuple[int, bool]], ...]
    values: tuple[tuple[str, Fraction | str], ...] = ()
    marked_zero_vertices: tuple[str, ...] | None = None

    @staticmethod
    def build(orders: dict[str, tuple[int, bool]],
              values: dict[str, Fraction | str] | None = None,
              marked_zero_vertices=None) -> "TwrDecoration":
        return TwrDecoration(
            tuple(sorted(orders.items())),
            tuple(sorted((values or {}).items())),
            tuple(sorted(marked_zero_vertices)) if marked_zero_vertices is not None else None,
        )

    @cached_property
    def order_of(self) -> dict[str, tuple[int, bool]]:
        return dict(self.orders)

    @cached_property
    def value_of(self) -> dict[str, Fraction | str]:
        return dict(self.values)

    def is_pole(self, hid: str) -> bool:
        return self.order_of[hid][1]

    def is_zero_site(self, vertex: str, point: str) -> bool:
        return self.value_of.get(site_key(vertex, point)) == 0

    def to_json(self) -> dict:
        doc: dict = {"orders": {h: {"ord_df": o, "pole": p} for h, (o, p) in self.orders}}
        if self.values:
            doc["values"] = {
                k: (v if isinstance(v, str) else format_rational(v))
                for k, v in self.values
            }
        if self.marked_zero_vertices is not None:
            doc["marked_zero_vertices"] = list(self.marked_zero_vertices)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "TwrDecoration":
        orders = {}
        for h, d in doc.get("orders", {}).items():
            if not isinstance(d["pole"], bool):
                raise ValueError(f"pole of {h} must be true or false, got {d['pole']!r}")
            orders[h] = json_int(d["ord_df"], f"ord_df of {h}"), d["pole"]
        values: dict[str, Fraction | str] = {}
        for k, v in doc.get("values", {}).items():  # a JSON integer, "p/q" or "?name"
            what = f"value of {k}"
            values[k] = v if isinstance(v, str) and v.startswith("?") else parse_rational(
                v if isinstance(v, str) else json_int(v, what), what)
        mz = doc.get("marked_zero_vertices")
        if mz is not None and not (isinstance(mz, list) and all(isinstance(v, str) for v in mz)):
            raise ValueError(f"marked_zero_vertices must be a list of vertex ids, got {mz!r}")
        return TwrDecoration.build(orders, values, mz)


@dataclass(frozen=True)
class TwdrDecoration:
    """Fully marked decoration: a base decoration plus the extra critical
    legs (positive orders of the differential away from zeros, poles and
    nodes)."""

    base: TwrDecoration
    extra_legs: tuple[tuple[str, str, int], ...] = ()  # (leg id, vertex, ord_df)

    @staticmethod
    def build(base: TwrDecoration, extra_legs) -> "TwdrDecoration":
        return TwdrDecoration(base, tuple(sorted(extra_legs)))

    def extra_at(self, v: str) -> list[tuple[str, int]]:
        return [(l, o) for l, vv, o in self.extra_legs if vv == v]

    def to_json(self) -> dict:
        doc = self.base.to_json()
        doc["extra_legs"] = [{"id": l, "vertex": v, "ord_df": o}
                             for l, v, o in self.extra_legs]
        return doc

    @staticmethod
    def from_json(doc: dict) -> "TwdrDecoration":
        base = TwrDecoration.from_json(doc)
        extras = [(e["id"], e["vertex"], json_int(e["ord_df"], f"ord_df of {e['id']}"))
                  for e in doc.get("extra_legs", [])]
        return TwdrDecoration.build(base, extras)


@dataclass
class DecorationReport:
    violations: list[tuple[str, str, str]] = field(default_factory=list)  # (clause, where, detail)
    deficits: dict[str, int] = field(default_factory=dict)
    divisors: dict[str, tuple] = field(default_factory=dict)  # vertex -> component_divisor

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, clause: str, where: str, detail: str) -> None:
        self.violations.append((clause, where, detail))


def component_divisor(graph: MarkedDualGraph, dec: TwrDecoration, v: str
                      ) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Zeros, poles and free points (node preimages that are neither) of
    the function on component v, each as point -> multiplicity.

    Legs are keyed by leg id; a leg of mu >= 0 is a zero of multiplicity
    mu.  Node preimages are keyed by site key: a pole flag makes a pole of
    multiplicity -ord - 1, a value 0 a nodal zero of multiplicity ord + 1,
    and any other preimage is free, of multiplicity ord + 1.  Half-edges
    without an order are skipped.
    """
    zeros = {l: m for l, m in graph.legs_of(v) if m >= 0}
    poles = {l: -m for l, m in graph.legs_of(v) if m < 0}
    free: dict[str, int] = {}
    for e, s in graph.edges_at(v):
        hid = half_edge_id(e, s)
        if hid not in dec.order_of:
            continue
        o, is_pole = dec.order_of[hid]
        site = site_key(v, hid)
        if is_pole:
            poles[site] = -o - 1
        elif dec.is_zero_site(v, hid):
            zeros[site] = o + 1
        else:
            free[site] = o + 1
    return zeros, poles, free


def _vertex_accounting(graph: MarkedDualGraph, dec: TwrDecoration,
                       report: DecorationReport,
                       extra: TwdrDecoration | None = None) -> None:
    # vertices with a marked zero: the listed ones, else those with a leg of mu > 0
    zero_vs = set(dec.marked_zero_vertices if dec.marked_zero_vertices is not None
                  else (v for _, v, m in graph.legs if m > 0))
    for v, g in graph.vertices:
        report.divisors[v] = zeros, poles, free = component_divisor(graph, dec, v)
        degree, zeros_known = sum(poles.values()), sum(zeros.values())
        # ord(df) is m - 1 at a point of multiplicity m, and -m - 1 at a pole
        ord_sum = (zeros_known + sum(free.values()) - degree
                   - len(zeros) - len(free) - len(poles))
        if extra is not None:
            ord_sum += sum(o for _, o in extra.extra_at(v))
        deficit = 2 * g - 2 - ord_sum
        report.deficits[v] = deficit
        if degree < 1:
            report.add("nonconstant", v, "component function has no poles (degree 0)")
        if v in zero_vs:
            if zeros_known != degree:
                report.add("prescribed-vanishing", v,
                           f"marked-zero component must balance with marked/nodal zeros: "
                           f"zeros {zeros_known} != degree {degree}")
        elif zeros_known > degree:
            report.add("prescribed-vanishing", v,
                       f"known zero orders {zeros_known} exceed degree {degree}")
        if extra is None:
            if 2 * g - 2 + len(zeros) + len(poles) + len(free) <= 0:
                report.add("structure", v, "unstable vertex: 2g - 2 + special points <= 0")
            if deficit < 0:
                report.add("order-identity", v,
                           f"orders exceed 2g-2 by {-deficit} (no room for critical points)")
        elif deficit != 0:
            report.add("order-identity", v,
                       f"sum of df orders is {2 * g - 2 - deficit}, expected {2 * g - 2}")


def _order_table_checks(graph: MarkedDualGraph, dec: TwrDecoration,
                        report: DecorationReport) -> None:
    expected = set(graph.half_edges())
    for hid in dec.order_of:
        if hid not in expected:
            report.add("structure", hid, "order given for unknown half-edge")
    for hid in expected:
        if hid not in dec.order_of:
            report.add("structure", hid, "missing half-edge order")
            continue
        o, is_pole = dec.order_of[hid]
        if o == -1:
            report.add("order-range", hid, "ord(df) = -1 is impossible")
        elif is_pole and o > -2:
            report.add("order-range", hid, f"pole flag with ord(df) = {o}")
        elif not is_pole and o < 0:
            report.add("order-range", hid, f"negative ord(df) = {o} without pole flag")
    for v in dec.marked_zero_vertices or ():
        if v not in graph.genus_of:
            report.add("structure", v, "marked zero vertex is not a vertex")


def _value_checks(graph: MarkedDualGraph, dec: TwrDecoration,
                  report: DecorationReport) -> None:
    for key, val in dec.values:
        if ":" not in key:
            report.add("values", key, "malformed site key")
            continue
        v, pid = key.split(":", 1)
        if pid in graph.leg_info:
            lv, m = graph.leg_info[pid]
            if lv != v:
                report.add("values", key, "leg attached to a different vertex")
            elif m < 0:
                report.add("values", key, "pole legs carry no finite value")
            elif m >= 0 and not isinstance(val, str) and val != 0:
                report.add("values", key, "marked zeros have value 0")
        else:
            try:
                e, s = split_half_edge(pid)
            except ValueError:
                report.add("values", key, "unknown point id")
                continue
            if e not in graph.edge_ends or graph.edge_ends[e][s] != v:
                report.add("values", key, "half-edge not at this vertex")
            elif pid in dec.order_of and dec.is_pole(pid):
                report.add("values", key, "pole sites carry no finite value")


def validate_twr(graph: MarkedDualGraph, levels: LevelStructure,
                 dec: TwrDecoration) -> DecorationReport:
    """Inequality-form validation against the level structure.

    Clauses: leg/value consistency, stable vertices, per-vertex divisor
    balance (marked-zero components close exactly), edge order sums >= -2
    (at an edge with one pole side, equivalently: the upper multiplicity
    dominates the pole's), and poles strictly descending.
    """
    report = DecorationReport()
    levels.check_normalized(graph)
    _order_table_checks(graph, dec, report)
    _value_checks(graph, dec, report)
    _vertex_accounting(graph, dec, report)
    for e, (a, b) in graph.edges:
        h0, h1 = half_edge_id(e, 0), half_edge_id(e, 1)
        if h0 not in dec.order_of or h1 not in dec.order_of:
            continue
        (o0, p0), (o1, p1) = dec.order_of[h0], dec.order_of[h1]
        if o0 + o1 < -2:
            report.add("matching-order", e, f"ord sum {o0 + o1} < -2")
        for (hs, ps, vs), (vo,) in (((h0, p0, a), (b,)), ((h1, p1, b), (a,))):
            if ps and not levels.of[vo] > levels.of[vs]:
                report.add("level-compatibility", hs,
                           f"pole at level {levels.of[vs]} not strictly below {vo}")
    return report


def validate_twdr(graph: MarkedDualGraph, levels: LevelStructure,
                  dec: TwdrDecoration) -> DecorationReport:
    """Fully-marked validation: exact -2 at every edge, no horizontal edges,
    positive extra critical legs, per-vertex order identity, and the level
    ordering matching pole positions in both directions."""
    report = DecorationReport()
    levels.check_normalized(graph)
    base = dec.base
    _order_table_checks(graph, base, report)
    _value_checks(graph, base, report)
    for l, v, o in dec.extra_legs:
        if v not in graph.genus_of:
            report.add("structure", l, "extra critical leg on unknown vertex")
        if o <= 0:
            report.add("extra-critical", l, f"order {o} not positive")
    _vertex_accounting(graph, base, report, extra=dec)
    for e, (a, b) in graph.edges:
        h0, h1 = half_edge_id(e, 0), half_edge_id(e, 1)
        if h0 not in base.order_of or h1 not in base.order_of:
            continue
        (o0, p0), (o1, p1) = base.order_of[h0], base.order_of[h1]
        if o0 + o1 != -2:
            report.add("matching-order", e, f"ord sum {o0 + o1} != -2")
        la, lb = levels.of[a], levels.of[b]
        if la == lb:
            report.add("horizontal", e, "fully marked decorations admit no horizontal edges")
            continue
        lower_is_b = la > lb
        lower_pole = p1 if lower_is_b else p0
        upper_pole = p0 if lower_is_b else p1
        if not lower_pole:
            report.add("level-compatibility", e, "vertical edge without a pole on the lower side")
        if upper_pole:
            report.add("level-compatibility", e, "pole on the upper side of a vertical edge")
    # typing against an extension of mu: the leg orders mu - 1 and positive extras total 2g - 2
    mu = graph.mu
    if mu and sum(mu) == 0:
        extras = sorted(o for _, _, o in dec.extra_legs)
        if any(o < 1 for o in extras) or sum(extras) - len(mu) != 2 * graph.total_genus - 2:
            mu_hat = tuple(m - 1 for m in mu) + tuple(extras)
            report.add("extension-typing", "mu",
                       f"orders {mu_hat} do not extend mu for genus {graph.total_genus}")
    return report
