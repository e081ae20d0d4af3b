"""The zero patterns the decoration walk judges against the plain ones.

``closure._decorations`` builds its zero patterns as the product of each
vertex's own flag choices, a superset of the patterns with an admissible
decoration.  Every zero-mark set of the plain enumeration must be among
the patterns it passes to ``judge_of``, each pattern once, on the graphs
the plain enumeration runs on in ``test_decoration_pruning`` and
``test_search_equivalence``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from drloci.closure import _decorations
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import enumerate_level_structures

from plain_decorations import plain_decorations
from randgen import random_connected_graph, random_levels, random_twr
from test_decoration_pruning import DOLLAR_2_2_M4, TRIANGLE, search_degree
from test_search_equivalence import random_searchable_graph


def assert_plain_patterns_judged(graph, levels, max_deg) -> int:
    """Check one level structure; returns the number of plain patterns."""
    judged = []

    def judge_of(zero_marks):
        judged.append(zero_marks)
        return None  # skip the pattern: only the patterns are checked here

    assert list(_decorations(graph, levels, max_deg, judge_of)) == []
    assert len(set(judged)) == len(judged)
    plain = {frozenset(zero_marks) for _, zero_marks in plain_decorations(graph, levels, max_deg)}
    assert plain <= set(judged)
    return len(plain)


def test_plain_patterns_are_judged_on_named_graphs():
    graphs = {name: load_graph(name) for name, f in FIXTURES.items() if "graph" in f}
    graphs.update({"triangle": TRIANGLE, "dollar_2_2_-4": DOLLAR_2_2_M4})
    patterns = 0
    for name, graph in graphs.items():
        # as in test_decoration_pruning: level_dependence's search degree is too
        # large for the plain enumeration
        max_deg = 3 if name == "level_dependence" else search_degree(graph)
        for levels in enumerate_level_structures(graph):
            patterns += assert_plain_patterns_judged(graph, levels, max_deg)
    assert patterns


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_plain_patterns_are_judged_on_random_graphs(seed, max_deg):
    rng = random.Random(seed)
    graph = random_connected_graph(rng, max_vertices=3, max_extra_edges=1, max_legs=3)
    assert_plain_patterns_judged(graph, random_levels(rng, graph), max_deg)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_plain_patterns_are_judged_on_random_decorated_graphs(seed):
    graph, levels, _ = random_twr(random.Random(seed), max_vertices=3, max_ord=3)
    if len(graph.edges) <= 3:  # four edges can take seconds in the reference
        assert_plain_patterns_judged(graph, levels, 3)


def test_plain_patterns_are_judged_on_searchable_random_graphs():
    rng = random.Random(2027)
    patterns = 0
    for _ in range(30):
        graph = random_searchable_graph(rng)
        for levels in enumerate_level_structures(graph):
            patterns += assert_plain_patterns_judged(graph, levels, search_degree(graph))
    assert patterns
