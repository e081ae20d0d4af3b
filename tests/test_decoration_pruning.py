"""The pattern-first decoration walk against the unpruned reference.

Pruning may only cut branches that have no admissible completion, so the
walk, sorted by rank, must yield the same (orders, zero marks) sequence
as the plain one, for every level structure, and each rank must name the
options the decoration took.  Every yielded candidate must also pass the
inequality-form validator, which the search no longer runs on each
candidate.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drloci.closure import _decorations
from drloci.decorations import TwrDecoration, site_key, validate_twr
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import MarkedDualGraph, enumerate_level_structures, half_edge_id, validate

from plain_decorations import edge_options, plain_decorations
from randgen import random_connected_graph, random_levels, random_twr

TRIANGLE = MarkedDualGraph.build(
    [("a", 1), ("b", 1), ("c", 1)],
    [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "a"))],
    [("z", "a", 3), ("p", "b", -3)])

DOLLAR_2_2_M4 = MarkedDualGraph.build(
    [("a", 0), ("b", 0)],
    [(f"e{i}", ("a", "b")) for i in range(3)],
    [("z1", "a", 2), ("z2", "b", 2), ("p", "a", -4)])


UNSTABLE = "unstable vertex: 2g - 2 + special points <= 0"


class AcceptAll:
    """A judge that forces no sites equal and passes every vertex: the walk
    under it yields every admissible decoration."""

    columns: dict = {}

    def verdict(self, v, orders):
        return True


def unjudged(zero_marks) -> AcceptAll:
    return AcceptAll()


def search_degree(graph: MarkedDualGraph) -> int:
    """The node multiplicity cap ``search`` uses by default."""
    return max(1, sum(m for m in graph.mu if m > 0))


def assert_same_and_valid(graph, levels, max_deg):
    walk = sorted(_decorations(graph, levels, max_deg, unjudged), key=lambda item: item[0])
    options = [(e, edge_options(graph, levels, e, max_deg)) for e, _ in graph.edges]
    for rank, orders, zero_marks, _ in walk:
        # the rank names, edge by edge, the option the decoration took
        for (e, opts), j in zip(options, rank):
            hids = (half_edge_id(e, 0), half_edge_id(e, 1))
            assert opts[j] == tuple((*orders[h], h in zero_marks) for h in hids)
    pruned = [(orders, set(zero_marks)) for _, orders, zero_marks, _ in walk]
    assert pruned == list(plain_decorations(graph, levels, max_deg))
    # a vertex without half-edges is never checked by either enumeration;
    # the search rejects it later, when its component has no pole
    if not all(graph.edges_at(v) for v in graph.vertex_ids):
        return pruned
    # the walk does not read stability (the search runs on stable graphs
    # only), so the validator may report exactly the unstable vertices
    unstable = {("structure", v, UNSTABLE) for v in validate(graph).unstable_vertices}
    for orders, zero_marks in pruned:
        dec = TwrDecoration.build(orders, {
            site_key(graph.half_edge_vertex(h), h): 0 for h in zero_marks})
        report = validate_twr(graph, levels, dec)
        assert set(report.violations) == unstable, report.violations
    return pruned


def test_pruning_exact_on_named_graphs():
    graphs = {name: load_graph(name) for name, f in FIXTURES.items() if "graph" in f}
    graphs["triangle"] = TRIANGLE
    graphs["dollar_2_2_-4"] = DOLLAR_2_2_M4
    for name, graph in graphs.items():
        # at its search cap level_dependence has millions of admissible
        # decorations per level structure, too many for the reference
        max_deg = 3 if name == "level_dependence" else search_degree(graph)
        for levels in enumerate_level_structures(graph):
            assert_same_and_valid(graph, levels, max_deg)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=2))
def test_pruning_exact_on_random_graphs(seed, max_deg):
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_vertices=3, max_extra_edges=1, max_legs=3)
    assert_same_and_valid(graph, random_levels(rng, graph), max_deg)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pruning_keeps_known_decorations(seed):
    graph, levels, dec = random_twr(random.Random(seed), max_vertices=3, max_ord=3)
    assume(len(graph.edges) <= 3)  # four edges can take seconds in the reference
    poles = {v: -sum(m for _, m in graph.legs_of(v) if m < 0) for v in graph.vertex_ids}
    for hid, (o, pole) in dec.orders:
        if pole:
            poles[graph.half_edge_vertex(hid)] += -o - 1
    max_deg = max([*poles.values(), *(o + 1 for o, pole in dec.order_of.values() if not pole)])
    yielded = assert_same_and_valid(graph, levels, max_deg)
    zero_marks = {k.split(":", 1)[1] for k, v in dec.values if v == 0}
    assert (dec.order_of, zero_marks) in yielded
