"""The judged order walk against the plain enumeration filtered by verdicts.

``search`` walks each level structure's orders with a judge per zero
pattern, and places an option only when both ends can still complete to a
closed vertex with a verdict.  Wrapped around the walk during a real
search, so that every level structure and pattern the search judges is
checked with the search's own judges, the walk sorted by rank must equal
``plain_decorations`` filtered by ``judge.verdict`` at every vertex.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from drloci import closure
from drloci.closure import _decorations, search
from drloci.decorations import site_key
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import enumerate_level_structures, validate

from plain_decorations import judged_plain_decorations
from test_decoration_pruning import DOLLAR_2_2_M4, TRIANGLE, search_degree
from test_scale_times import scale_times
from test_search_equivalence import random_searchable_graph


@contextmanager
def judged_walks_checked(keep=lambda index: True):
    """Check the walk of every level structure the search judges whose walk
    index ``keep`` accepts; yields the list of checked (levels, yields)."""
    walk, checked, seen = closure._decorations, [], []

    def checking(graph, levels, max_deg, judge_of):
        got = sorted(walk(graph, levels, max_deg, judge_of), key=lambda item: item[0])
        assert len({rank for rank, *_ in got}) == len(got)
        seen.append(levels)
        if keep(len(seen) - 1):
            want = list(judged_plain_decorations(graph, levels, max_deg, judge_of))
            assert [(rank, orders, zero_marks) for rank, orders, zero_marks, _ in got] == want
            checked.append((levels, got))
        yield from got

    with mock.patch.object(closure, "_decorations", checking):
        yield checked


def stable_graphs():
    graphs = {name: load_graph(name) for name, f in FIXTURES.items() if "graph" in f}
    graphs.update({"triangle": TRIANGLE, "dollar_2_2_-4": DOLLAR_2_2_M4})
    return {name: g for name, g in graphs.items() if validate(g).stable}


@pytest.mark.parametrize("name", sorted(stable_graphs()))
def test_judged_walk_matches_filtered_plain_on_named_graphs(name):
    graph = stable_graphs()[name]
    with judged_walks_checked() as checked:
        certs = search(graph, graph.mu)
    # a graph without pole legs walks no level structure
    assert checked or not certs


def test_judged_walk_matches_filtered_plain_on_random_graphs():
    rng = random.Random(1501)
    yielded = 0
    for _ in range(25):
        graph = random_searchable_graph(rng)
        with judged_walks_checked() as checked:
            search(graph, graph.mu)
        yielded += sum(len(got) for _, got in checked)
    assert yielded > 0


def test_judged_walk_matches_filtered_plain_on_ld9():
    # the plain enumeration takes 3-12 s per level structure here, so only
    # the two cheapest of the ten structures the search walks are checked
    graph = scale_times.build("ld9-m2")
    with judged_walks_checked(keep=lambda index: index in (4, 8)) as checked:
        assert search(graph, graph.mu) == []
    assert len(checked) == 2


def test_ld9_walk_asks_few_component_verdicts(monkeypatch):
    # each vertex's feasible orders are tabulated once per zero pattern, and
    # shared by patterns that agree at the vertex, so a branch dies at its
    # first placement instead of at a closing vertex (15 176 calls before)
    calls = []
    verdict = closure._PatternJudge.verdict

    def counting(self, v, orders):
        calls.append(v)
        return verdict(self, v, orders)

    monkeypatch.setattr(closure._PatternJudge, "verdict", counting)
    graph = scale_times.build("ld9-m2")
    assert search(graph, graph.mu) == []
    assert 0 < len(calls) <= 4000


class ParityJudge:
    """A judge whose forced groups depend on the whole zero pattern: with an
    even number of nodal zeros every node preimage is forced equal to every
    other, with an odd number none is.  A vertex fails when two of its
    regular node preimages are forced equal."""

    def __init__(self, graph, zero_marks):
        self.graph, self.zero_marks = graph, zero_marks
        even = len(zero_marks) % 2 == 0
        self.columns = {site_key(graph.half_edge_vertex(h), h): () if even else (h,)
                        for h in graph.half_edges()}

    def verdict(self, v, orders):
        free = [self.columns[site_key(v, h)] for h in self.graph.half_edges()
                if self.graph.half_edge_vertex(h) == v and not orders[h][1]
                and h not in self.zero_marks]
        return None if len(set(free)) < len(free) else {"vertex": v}


@pytest.mark.parametrize("graph", [TRIANGLE, DOLLAR_2_2_M4], ids=["triangle", "dollar_2_2_-4"])
def test_walk_keeps_vertex_answers_apart_when_forced_groups_differ(graph):
    # patterns that agree on a vertex's zero flags but not on its forced
    # groups must not share the vertex's answers
    def judge_of(zero_marks):
        return ParityJudge(graph, zero_marks)

    max_deg = search_degree(graph)
    yielded = 0
    for levels in enumerate_level_structures(graph, pole_carrying=True):
        got = sorted(_decorations(graph, levels, max_deg, judge_of), key=lambda item: item[0])
        want = list(judged_plain_decorations(graph, levels, max_deg, judge_of))
        assert [(rank, orders, zero_marks) for rank, orders, zero_marks, _ in got] == want
        yielded += len(got)
    assert yielded
