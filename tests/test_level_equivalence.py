"""Level-structure enumeration by automorphism orbits against the plain
enumeration in plain_levels, and against a Burnside count.

``enumerate_level_structures`` must return the very list the plain
enumeration returns, in the same order: ``search`` walks it, so its order
decides which certificate is kept per isomorphism class.  Where the plain
enumeration raises ``TypeError`` (keys of mixed nesting depth), the new
one is checked against the Burnside count alone, and everywhere against
``plain_levels.orbit_walk``, which walks the candidates one tuple at a
time and keys every orbit representative.
"""

import importlib.util
import itertools
import random
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from drloci import closure, graphs
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import (EnumerationCapExceeded, LevelStructure, MarkedDualGraph,
                           canonical_key, enumerate_level_structures)

import plain_levels
from randgen import random_connected_graph

GRAPH_FIXTURES = sorted(name for name, fx in FIXTURES.items() if "graph" in fx)

SCALE_TIMES = Path(__file__).resolve().parents[1] / "scripts" / "scale_times.py"
_spec = importlib.util.spec_from_file_location("scale_times", SCALE_TIMES)
scale_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_times)


def ordered_partitions(n: int, limit: int) -> int:
    """Ordered set partitions of an n-set into at most ``limit`` blocks."""
    # surjections onto j blocks, by inclusion-exclusion
    return sum(sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))
               for j in range(1, min(n, limit) + 1))


def burnside_count(graph: MarkedDualGraph, max_levels: int | None = None) -> int:
    """Level structures up to isomorphism: the average, over the vertex
    permutations preserving genus, leg mu-labels and edge multiplicities,
    of the number of level functions each one fixes."""
    vs = graph.vertex_ids
    limit = max_levels or len(vs)
    color = {v: (graph.genus_of[v], sorted(m for _, m in graph.legs_of(v))) for v in vs}
    mult = Counter(frozenset(ends) for _, ends in graph.edges)
    fixed = group = 0
    for image in itertools.permutations(vs):
        sigma = dict(zip(vs, image))
        if any(color[v] != color[sigma[v]] for v in vs):
            continue
        if any(mult[frozenset(sigma[x] for x in pair)] != c for pair, c in mult.items()):
            continue
        group += 1
        seen, cycles = set(), 0
        for v in vs:
            cycles += v not in seen
            while v not in seen:
                seen.add(v)
                v = sigma[v]
        fixed += ordered_partitions(cycles, limit)
    assert fixed % group == 0
    return fixed // group


def random_graphs(seed: int, count: int, max_vertices: int):
    rng = random.Random(seed)
    return [random_connected_graph(rng, max_vertices=max_vertices) for _ in range(count)]


def pole_carrying(graph: MarkedDualGraph, levels: LevelStructure) -> bool:
    """Every vertex has a leg of mu < 0 or a neighbour on a higher level."""
    ok = {v for _, v, m in graph.legs if m < 0}
    for _, (a, b) in graph.edges:
        if levels.of[a] != levels.of[b]:
            ok.add(a if levels.of[a] < levels.of[b] else b)
    return ok >= set(graph.vertex_ids)


def assert_pruned_walk_filters(graph, **kwargs) -> int:
    """The pole-carrying walk returns the full list filtered, in its order."""
    want = [ls for ls in enumerate_level_structures(graph, **kwargs) if pole_carrying(graph, ls)]
    assert enumerate_level_structures(graph, pole_carrying=True, **kwargs) == want
    return len(want)


def assert_same_enumeration(graph, **kwargs):
    try:
        want = plain_levels.enumerate_level_structures(graph, **kwargs)
    except TypeError:
        want = None
    got = enumerate_level_structures(graph, **kwargs)
    if want is not None:
        assert got == want
    assert len(got) == burnside_count(graph, kwargs.get("max_levels"))
    return want is not None


def assert_same_as_orbit_walk(graph, **kwargs) -> int:
    """The orbit walk's list, or its cap error; returns the structure count."""
    try:
        want = plain_levels.orbit_walk(graph, **kwargs)
    except EnumerationCapExceeded:
        with pytest.raises(EnumerationCapExceeded):
            enumerate_level_structures(graph, **kwargs)
        return 0
    assert enumerate_level_structures(graph, **kwargs) == want
    return len(want)


@pytest.mark.parametrize("name", GRAPH_FIXTURES)
def test_same_structures_on_fixtures(name):
    assert assert_same_enumeration(load_graph(name))
    for max_levels in (None, 1, 2, 3):
        for pole in (False, True):
            assert_same_as_orbit_walk(load_graph(name), max_levels=max_levels,
                                      pole_carrying=pole)


def test_same_structures_on_random_graphs():
    compared = sum(assert_same_enumeration(g) for g in random_graphs(11, 40, 5))
    six = [g for g in random_graphs(12, 40, 6) if len(g.vertices) == 6][:4]
    compared += sum(assert_same_enumeration(g) for g in six)
    assert compared >= 30


def test_same_structures_under_max_levels():
    graphs_ = [load_graph(name) for name in GRAPH_FIXTURES] + random_graphs(13, 15, 5)
    for graph in graphs_:
        for max_levels in (1, 2, 3):
            assert_same_enumeration(graph, max_levels=max_levels)


def test_pruned_walk_filters_fixtures_and_random_graphs():
    graphs_ = [load_graph(name) for name in GRAPH_FIXTURES] + random_graphs(11, 40, 5)
    graphs_ += [g for g in random_graphs(12, 40, 6) if len(g.vertices) == 6][:4]
    kept = 0
    for graph in graphs_:
        for max_levels in (None, 1, 2, 3):
            kept += assert_pruned_walk_filters(graph, max_levels=max_levels)
    assert kept > 0


def complete(n: int, genera=None) -> MarkedDualGraph:
    genera = genera or [0] * n
    return MarkedDualGraph.build(
        [(f"v{i}", genera[i]) for i in range(n)],
        [(f"e{i}{j}", (f"v{i}", f"v{j}")) for i in range(n) for j in range(i + 1, n)])


@pytest.mark.parametrize("graph", [complete(4), complete(5, [0, 0, 1, 1, 1]),
                                   load_graph("theta"), load_graph("level_dependence")],
                         ids=["complete4", "complete5_two_genera", "theta", "level_dependence"])
def test_cap_counts_every_candidate(graph):
    # the cap counts candidates, covered or not, exactly as the plain walk does
    for cap in range(1, 80):
        try:
            want = plain_levels.enumerate_level_structures(graph, cap=cap)
        except EnumerationCapExceeded:
            with pytest.raises(EnumerationCapExceeded):
                enumerate_level_structures(graph, cap=cap)
        else:
            assert enumerate_level_structures(graph, cap=cap) == want


def counted_keys(monkeypatch) -> list:
    """Records the arguments of every ``_Labeller.key`` call from now on."""
    calls = []
    key = graphs._Labeller.key

    def counting_key(self, *args, **kwargs):
        calls.append(args)
        return key(self, *args, **kwargs)

    monkeypatch.setattr(graphs._Labeller, "key", counting_key)
    return calls


def test_one_canonical_key_per_structure(monkeypatch):
    # a candidate is keyed only when a round-0 colour class holds two
    # vertices, or to break a tie of its colour multiset: at most once
    calls = counted_keys(monkeypatch)
    shapes = [complete(5), load_graph("level_dependence"), load_graph("theta"), star(6)]
    shapes += [chain(n, cycle=cycle) for n in (5, 6) for cycle in (True, False)]
    keyed = 0
    for graph in shapes + random_graphs(14, 20, 5):
        calls.clear()
        found = enumerate_level_structures(graph)
        assert len(calls) <= len(found)
        keyed += len(calls)
    assert keyed > 1000
    # every round-0 class of these is a single vertex, and the colours fix the levels
    for graph in (distinct_colour6(0), distinct_colour6(1)):
        calls.clear()
        assert len(enumerate_level_structures(graph)) == 4683
        assert calls == []


def distinct_colour6(seed: int) -> MarkedDualGraph:
    """A connected graph on 6 vertices and 7 edges whose vertices all differ
    in (genus, leg count), so colour refinement is discrete at round 0."""
    rng = random.Random(seed)
    ends = [(rng.randrange(i), i) for i in range(1, 6)]
    ends += [tuple(rng.sample(range(6), 2)) for _ in range(2)]
    colours = rng.sample([(g, k) for g in range(3) for k in range(2)], 6)
    return MarkedDualGraph.build(
        [(f"v{i}", g) for i, (g, _) in enumerate(colours)],
        [(f"e{k}", (f"v{a}", f"v{b}")) for k, (a, b) in enumerate(ends)],
        [(f"l{v}", f"v{v}", 1) for v, (_, k) in enumerate(colours) if k])


def assert_level_keys_order_as_canonical_keys(graph) -> Counter:
    """Over every normalized level tuple, the order enumeration sorts by is
    that of ``canonical_key``.  With V the sum over vertices of
    B**(K-1-code), the labeller's code of the vertex colour at its level,
    for a base B above n: descending V, then the key, orders the round-0
    keys, which sort before all others; equal V is equal vertex rows; and
    V digits of 0 or 1 alone mean a round-0 key.  The enumerated structures
    come in key order.  Returns how many keys of each round count were
    compared."""
    lab, n = graph._labeller, len(graph.vertices)
    tuples = list(level_tuples(n))
    theirs = [canonical_key(graph, LevelStructure.build(dict(zip(graph.vertex_ids, t))))
              for t in tuples]
    top = max(c for row in lab.code for c in row.values())
    counts = [Counter(row[lv] for row, lv in zip(lab.code, t)) for t in tuples]
    v = [sum(m * (n + 1) ** (top - c) for c, m in cnt.items()) for cnt in counts]
    round0 = [i for i, k in enumerate(theirs) if k[0] == 0]
    assert sorted(round0, key=lambda i: (-v[i], theirs[i])) == sorted(round0, key=theirs.__getitem__)
    rows = {(v[i], theirs[i][1]) for i in round0}
    assert len(rows) == len({v for v, _ in rows}) == len({row for _, row in rows})
    assert all(theirs[i][0] == 0 for i, cnt in enumerate(counts) if max(cnt.values()) == 1)
    keys = [canonical_key(graph, ls) for ls in enumerate_level_structures(graph)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    return Counter(k[0] > 0 for k in theirs)


def test_level_keys_order_as_canonical_keys():
    shapes = [load_graph(name) for name in GRAPH_FIXTURES] + random_graphs(17, 20, 5)
    shapes += [chain(n, cycle=cycle) for n in (4, 5, 6) for cycle in (True, False)]
    rounds = Counter()
    for graph in shapes:
        rounds += assert_level_keys_order_as_canonical_keys(graph)
    # cycles and paths mix keys of round 0 and rounds >= 1 in one sort
    for graph in [chain(n, cycle=cycle) for n in (5, 6) for cycle in (True, False)]:
        assert set(assert_level_keys_order_as_canonical_keys(graph)) == {False, True}
    assert rounds[False] > 1000 and rounds[True] > 1000


@pytest.mark.parametrize("seed", [0, 1])
def test_distinct_colour_six_vertex_graphs(seed):
    graph = distinct_colour6(seed)
    assert graph.is_connected()
    assert assert_level_keys_order_as_canonical_keys(graph) == {False: 4683}
    assert assert_same_enumeration(graph)


def star(n: int, spokes: int = 1, chord: bool = False) -> MarkedDualGraph:
    """v0 joined to each other vertex by ``spokes`` edges, plus a chord v1-v2."""
    ends = [("v0", f"v{i}") for i in range(1, n) for _ in range(spokes)] + [("v1", "v2")] * chord
    return MarkedDualGraph.build([(f"v{i}", 0) for i in range(n)],
                                 [(f"e{k}", e) for k, e in enumerate(ends)])


def nesting_depth(key: tuple) -> int:
    color, depth = key[1][0][1], 0
    while len(color) == 2:
        color, depth = color[0], depth + 1
    return depth


def test_canonical_key_is_round_count_then_plain_key():
    shapes = [load_graph(name) for name in GRAPH_FIXTURES]
    shapes += [star(5), star(5, spokes=2), star(5, chord=True), complete(5),
               complete(5, [0, 0, 0, 1, 1])]
    shapes += [chain(n, cycle=cycle) for n in (4, 5, 6) for cycle in (True, False)]
    shapes += random_graphs(15, 20, 5)
    cases = []
    for graph in shapes:
        found = enumerate_level_structures(graph)
        # levels outside {0, -1, ...}, which isomorphic() accepts, key the same way
        spread = [LevelStructure.build({v: 3 * lv + 2 for v, lv in ls.level}) for ls in found[:3]]
        cases += [(graph, levels) for levels in found + spread]
    # a graph's labeller reuses edge rows from earlier level tuples; on a
    # cycle one vertex order arises with different colour classes
    for graph in (chain(5, cycle=True), chain(6, cycle=True)):
        cases += [(graph, LevelStructure.build(dict(zip(graph.vertex_ids, level))))
                  for level in level_tuples(len(graph.vertices))]
    refined = symmetric = 0
    for graph, levels in cases:
        key = canonical_key(graph, levels)
        # the round count is how deeply the vertex colours are nested
        assert key == (nesting_depth(key), *plain_levels.canonical_key(graph, levels))
        refined += key[0] > 0
        colors = [c for _, c in key[1]]
        symmetric += len(set(colors)) < len(colors)
    assert refined > 100 and symmetric > 100


def test_certificate_keys_extend_plain_keys(monkeypatch):
    # certificate keys carry per-half-edge decoration data
    for name in ("dollar_unmarked_zeros", "partial_order", "dollar_cover"):
        graph = load_graph(name)
        certs = closure.search(graph)
        assert certs
        keys = [c.key(graph) for c in certs]
        with monkeypatch.context() as patch:
            patch.setattr(closure, "canonical_key", plain_levels.canonical_key)
            assert [k[1:] for k in keys] == [c.key(graph) for c in certs]


def test_relabeled_copy_enumerates_isomorphic_structures():
    rng = random.Random(16)
    for graph in random_graphs(16, 10, 5):
        names = {v: f"w{i}" for i, v in enumerate(rng.sample(graph.vertex_ids, len(graph.vertices)))}
        copy = MarkedDualGraph.build(
            [(names[v], g) for v, g in graph.vertices],
            [(e, (names[a], names[b])) for e, (a, b) in graph.edges],
            [(l, names[v], m) for l, v, m in graph.legs])
        mine = [canonical_key(graph, ls) for ls in enumerate_level_structures(graph)]
        theirs = [canonical_key(copy, ls) for ls in enumerate_level_structures(copy)]
        assert mine == theirs


# Colour refinement runs a different number of rounds for different level
# structures of these graphs; the plain enumeration then compares keys of
# mixed nesting depth and raises TypeError.


def chain(n: int, genus: int = 0, cycle: bool = False, legs=()) -> MarkedDualGraph:
    return MarkedDualGraph.build(
        [(f"v{i}", genus) for i in range(n)],
        [(f"e{i}", (f"v{i}", f"v{(i + 1) % n}")) for i in range(n if cycle else n - 1)],
        legs)


def level_tuples(n: int):
    """Every normalized level function on n vertices, as a tuple."""
    for values in itertools.product(range(n), repeat=n):
        if set(values) == set(range(max(values) + 1)):
            yield tuple(-x for x in values)


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "path"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_genus0_cycles_and_paths(n, cycle):
    graph = chain(n, cycle=cycle)
    assert len(enumerate_level_structures(graph)) == burnside_count(graph)


@pytest.mark.parametrize("graph", [
    chain(4, 1, cycle=True),
    chain(4, 1),
    chain(4, 1, cycle=True, legs=[("z", "v0", 1), ("p", "v0", -1)]),
    chain(5, 1, legs=[("z", "v2", 1), ("p", "v2", -1)]),
], ids=["cycle4", "path4", "cycle4_legs_on_one_vertex", "path5_legs_in_the_middle"])
def test_genus1_chains_enumerate_and_search(graph):
    assert len(enumerate_level_structures(graph)) == burnside_count(graph)
    if graph.legs:
        assert closure.search(graph) == []


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "path"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pruned_walk_filters_genus1_chains(n, cycle):
    # mu (2, -2) with the pole in the middle; both legs on v0, which a
    # cycle's reflection through v0 fixes; pole legs on v0 and v(n-1), which
    # a reflection swaps
    middle = chain(n, 1, cycle, [("z", "v0", 2), ("p", f"v{n // 2}", -2)])
    assert assert_pruned_walk_filters(middle)
    for max_levels in (2, 3):
        assert_pruned_walk_filters(middle, max_levels=max_levels)
    for legs in ([("z", "v0", 2), ("p", "v0", -2)], [("p", "v0", -1), ("q", f"v{n - 1}", -1)]):
        graph = chain(n, 1, cycle, legs)
        for max_levels in ((None, 2, 3) if n < 7 else (2, 3)):
            assert_pruned_walk_filters(graph, max_levels=max_levels)


def test_level_cap_counts_the_pole_carrying_walk():
    # the genus-1 8-path: 545 835 ordered partitions, no automorphism, and
    # 129 pole-carrying structures
    graph = chain(8, 1, legs=[("z", "v0", 2), ("p", "v4", -2)])
    assert len(enumerate_level_structures(graph, pole_carrying=True)) == 129
    assert len(enumerate_level_structures(graph, cap=129, pole_carrying=True)) == 129
    with pytest.raises(EnumerationCapExceeded):
        enumerate_level_structures(graph, cap=128, pole_carrying=True)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_level_structures(graph)


def test_level_cap_is_a_count_not_a_walk(monkeypatch):
    # the full walk of the genus-1 8-path has 545 835 candidates: over the
    # cap, which is decided before a single candidate is keyed
    calls = counted_keys(monkeypatch)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_level_structures(chain(8, 1, legs=[("z", "v0", 2), ("p", "v4", -2)]))
    assert calls == []


@pytest.mark.parametrize("cycle", [True, False], ids=["cycle", "path"])
@pytest.mark.parametrize("genus", [0, 1])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_same_as_orbit_walk_on_cycles_and_paths(n, genus, cycle):
    # round-0 keys and keys of rounds >= 1 mix here; the 8-vertex walks are
    # bounded by max_levels, as the full ones exceed the cap
    graph = chain(n, genus, cycle)
    for max_levels in ((None, 2) if n < 8 else (2, 3)):
        assert assert_same_as_orbit_walk(graph, max_levels=max_levels)


@pytest.mark.parametrize("name", scale_times.GRAPHS)
def test_same_as_orbit_walk_on_scale_graphs(name):
    graph = scale_times.build(name)
    assert assert_same_as_orbit_walk(graph, pole_carrying=True)
    assert_same_as_orbit_walk(graph)


def test_same_as_orbit_walk_on_random_graphs():
    graphs_ = random_graphs(18, 40, 5) + [g for g in random_graphs(19, 60, 6)
                                         if len(g.vertices) == 6][:8]
    found = 0
    for graph in graphs_:
        for max_levels in (None, 1, 2, 3):
            for pole in (False, True):
                found += assert_same_as_orbit_walk(graph, max_levels=max_levels,
                                                   pole_carrying=pole)
    assert found > 1000


def test_same_as_orbit_walk_on_one_vertex():
    for legs in ((), [("z", "v0", 2), ("p", "v0", -2)]):
        graph = chain(1, 1, legs=legs)
        for max_levels in (None, 1, 2):
            for pole in (False, True):
                assert_same_as_orbit_walk(graph, max_levels=max_levels, pole_carrying=pole)
        assert enumerate_level_structures(graph) == [LevelStructure.build({"v0": 0})]
