"""The pattern-first search against the decoration-by-decoration reference.

``closure.search`` enumerates zero patterns first, cuts a branch as soon
as a closed component fails, and keeps the least-rank candidate per
isomorphism class; ``plain_search`` decides every plain decoration in
order and keeps the first arrival.  The certificate JSON must be the
same bytes.
"""

import json
import random

import pytest

from drloci.closure import SearchBounds, _decorations, search
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import MarkedDualGraph, validate

from plain_decorations import plain_decorations
from plain_search import plain_search
from randgen import random_connected_graph
from test_decoration_pruning import DOLLAR_2_2_M4, TRIANGLE, unjudged
from test_level_equivalence import chain

CHAIN4 = MarkedDualGraph.build(
    [("a", 1), ("b", 0), ("c", 0), ("d", 1)],
    [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "d")), ("e4", ("b", "c"))],
    [("z1", "b", 2), ("z2", "c", 1), ("p", "a", -3)])

# some zero patterns give a component the same local orders and nodal zeros
# but different forced groups, and a different verdict
LOOP_TRIANGLE = MarkedDualGraph.build(
    [("v0", 2), ("v1", 0), ("v2", 0)],
    [("e0", ("v0", "v1")), ("e1", ("v0", "v2")), ("e2", ("v2", "v2")), ("e3", ("v1", "v2"))],
    [("l0", "v2", 3), ("l1", "v0", -2), ("bal", "v1", -1)])


def certificate_bytes(certs) -> str:
    return json.dumps([c.to_json() for c in certs], sort_keys=True)


def ranked_decorations(graph, levels, max_deg):
    """The walk under a judge that accepts everything, sorted by rank: the
    plain sequence (``test_decoration_pruning``), without the plain
    enumeration's cost."""
    walk = sorted(_decorations(graph, levels, max_deg, unjudged), key=lambda item: item[0])
    return [(orders, set(zero_marks)) for _, orders, zero_marks, _ in walk]


def assert_same_search(graph, bounds=None, decorations=plain_decorations):
    try:
        want = plain_search(graph, graph.mu, bounds, decorations)
    except ValueError:
        with pytest.raises(ValueError):
            search(graph, graph.mu, bounds)
        return None
    got = search(graph, graph.mu, bounds)
    assert certificate_bytes(got) == certificate_bytes(want)
    return got


def named_graphs():
    graphs = {name: load_graph(name) for name, f in FIXTURES.items() if "graph" in f}
    graphs.update({"triangle": TRIANGLE, "dollar_2_2_-4": DOLLAR_2_2_M4, "chain4": CHAIN4})
    return graphs


@pytest.mark.parametrize("name", sorted(named_graphs()))
def test_search_matches_plain_on_named_graphs(name):
    # the plain enumeration takes a minute on chain4 for its 64 decorations
    source = ranked_decorations if name == "chain4" else plain_decorations
    assert_same_search(named_graphs()[name], decorations=source)


def test_search_matches_plain_when_forced_groups_differ():
    # the search shares component verdicts across patterns and level
    # structures only when the forced groups agree too
    assert len(assert_same_search(LOOP_TRIANGLE, decorations=ranked_decorations)) == 44


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "path"])
@pytest.mark.parametrize("n", [4, 5])
def test_search_matches_plain_on_genus1_chains(n, cycle):
    # the plain search walks every level structure, the search only those
    # where each vertex can carry a pole
    graph = chain(n, 1, cycle, [("z", "v0", 2), ("p", f"v{n // 2}", -2)])
    assert_same_search(graph, decorations=ranked_decorations)


@pytest.mark.parametrize("bounds", [SearchBounds(hurwitz_cap=2), SearchBounds(max_degree=4)],
                         ids=["cap2", "degree4"])
def test_search_matches_plain_under_other_bounds(bounds):
    certs = assert_same_search(load_graph("dollar_unmarked_zeros"), bounds)
    assert certs


def random_searchable_graph(rng: random.Random) -> MarkedDualGraph:
    """A valid, stable ``randgen`` graph whose legs, after one balancing
    pole leg, carry a partition of zero with positive mass 1..3."""
    while True:
        g = random_connected_graph(rng, max_vertices=3, max_extra_edges=2, max_legs=3)
        legs = [(l, v, m) for l, v, m in g.legs]
        if sum(m for *_, m in legs) > 0:
            legs.append(("bal", rng.choice(g.vertex_ids), -sum(m for *_, m in legs)))
        positive = sum(m for *_, m in legs if m > 0)
        if not 1 <= positive <= 3 or sum(m for *_, m in legs) != 0:
            continue
        graph = MarkedDualGraph.build(list(g.vertices), list(g.edges), legs)
        rep = validate(graph)
        if rep.ok and rep.stable:
            return graph


def test_search_matches_plain_on_random_graphs():
    rng = random.Random(2027)
    members = 0
    for _ in range(30):
        members += bool(assert_same_search(random_searchable_graph(rng)))
    assert members >= 3
