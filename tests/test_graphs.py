import tracemalloc

import pytest

from drloci.fixtures import load_graph
from drloci.graphs import (EnumerationCapExceeded, LevelStructure,
                           MarkedDualGraph, canonical_key,
                           enumerate_level_structures, isomorphic,
                           stabilize_graph, validate)


def theta():
    return MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)],
        [(e, ("v1", "v2")) for e in ("e1", "e2", "e3")])


def dollar():
    return load_graph("dollar_unmarked_zeros")


def test_theta_validation():
    rep = validate(theta())
    assert rep.ok and rep.connected and rep.stable
    assert rep.total_genus == 2


def test_dollar_validation():
    rep = validate(dollar())
    assert rep.ok
    assert rep.total_genus == 2
    assert rep.mu_sum == 0


def test_unstable_single_vertex_flagged():
    g = MarkedDualGraph.build([("v", 0)], [], [("x", "v", 1)])
    rep = validate(g)
    assert rep.ok  # structurally fine, prestable
    assert rep.unstable_vertices == ["v"]


def test_structural_errors_located():
    g = MarkedDualGraph.build([("v", 0), ("v", 1)], [("e", ("v", "w"))], [])
    rep = validate(g)
    codes = {c for c, _ in rep.errors}
    assert "duplicate-vertex-id" in codes
    assert "dangling-half-edge" in codes


def test_genus_invariant_under_subdivision():
    g = theta()
    sub = MarkedDualGraph.build(
        list(g.vertices) + [("w", 0)],
        [("e1a", ("v1", "w")), ("e1b", ("w", "v2")),
         ("e2", ("v1", "v2")), ("e3", ("v1", "v2"))])
    assert sub.total_genus == g.total_genus


def test_enumerate_dollar_three_structures():
    assert len(enumerate_level_structures(dollar())) == 3


def test_enumerate_single_vertex():
    g = MarkedDualGraph.build([("v", 1)], [], [("x", "v", 1), ("y", "v", -1)])
    assert len(enumerate_level_structures(g)) == 1


def test_enumerate_contains_tilted_cherry_pair():
    g = load_graph("cherry")
    structs = enumerate_level_structures(g)
    wanted = [LevelStructure.build({"vt": 0, "va": -1, "vb": -2}),
              LevelStructure.build({"vt": 0, "va": -2, "vb": -1})]
    for w in wanted:
        assert any(s == w for s in structs)


def test_enumerate_normalized_and_deduplicated():
    g = dollar()
    structs = enumerate_level_structures(g)
    for s in structs:
        s.check_normalized(g)
    for i, a in enumerate(structs):
        for b in structs[i + 1:]:
            assert not isomorphic(g, g, a, b)
    assert structs == enumerate_level_structures(g)


def test_enumeration_cap():
    g = MarkedDualGraph.build(
        [(f"v{i}", 0) for i in range(7)],
        [(f"e{i}", (f"v{i}", f"v{i + 1}")) for i in range(6)])
    with pytest.raises(EnumerationCapExceeded):
        enumerate_level_structures(g, cap=10)


def _path(n):
    return MarkedDualGraph.build(
        [(f"v{i}", 0) for i in range(n)],
        [(f"e{i}", (f"v{i}", f"v{i + 1}")) for i in range(n - 1)])


def _peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2**20


@pytest.mark.parametrize("max_levels", [None, 2])
def test_enumeration_cap_bounds_memory(max_levels):
    # the walk is lazy: the cap fires after a few candidates, before the
    # splits of a 16-vertex set (2^16 of them) are ever listed
    g = _path(16)
    g._labeller

    def run():
        with pytest.raises(EnumerationCapExceeded):
            enumerate_level_structures(g, max_levels=max_levels, cap=10)
    assert _peak_mb(run) < 1


def test_two_levels_memory_follows_the_output():
    # only the leaf split is taken at the last allowed depth, and no split
    # list is kept: the peak is the kept structures, not 3^n (subset, rest) pairs
    g = _path(10)
    g._labeller
    found = []
    assert _peak_mb(lambda: found.extend(enumerate_level_structures(g, max_levels=2))) < 6
    # one level, plus the two-level splits up to reversal (Burnside)
    assert len(found) == 1 + (2**10 - 2 + 2**5 - 2) // 2


def test_isomorphic_self_and_relabeled():
    g = dollar()
    relabel = MarkedDualGraph.build(
        [("a", 0), ("b", 0)],
        [("x", ("a", "b")), ("y", ("a", "b")), ("w", ("a", "b"))],
        [("pp", "a", -3), ("m1", "b", 1), ("m2", "b", 1), ("m3", "b", 1)])
    assert isomorphic(g, g)
    assert isomorphic(g, relabel)


def test_cherry_tilts_not_isomorphic():
    g = load_graph("cherry")
    l1 = LevelStructure.build({"vt": 0, "va": -1, "vb": -2})
    l2 = LevelStructure.build({"vt": 0, "va": -2, "vb": -1})
    assert not isomorphic(g, g, l1, l2)


def test_canonical_key_respects_decorations():
    g = theta()
    k1 = canonical_key(g, edge_data=lambda e, s: (0, False))
    k2 = canonical_key(g, edge_data=lambda e, s: (1, False) if e == "e1" else (0, False))
    assert k1 != k2


def test_json_round_trip():
    g = load_graph("level_dependence")
    assert MarkedDualGraph.from_json(g.to_json()) == g


def test_enumeration_counts_match_ordered_set_partitions():
    # with pairwise distinct vertex colors no two structures are isomorphic,
    # so the count is the number of ordered set partitions (Fubini numbers)
    for n, fubini in ((1, 1), (2, 3), (3, 13)):
        g = MarkedDualGraph.build(
            [(f"v{i}", i) for i in range(n)],
            [(f"e{i}", (f"v{i}", f"v{i + 1}")) for i in range(n - 1)])
        assert len(enumerate_level_structures(g)) == fubini


def test_enumerate_max_levels_cap():
    structs = enumerate_level_structures(dollar(), max_levels=1)
    assert len(structs) == 1
    assert structs[0].of == {"v1": 0, "v2": 0}


@pytest.mark.parametrize("max_levels", [0, -1])
def test_enumerate_rejects_max_levels_below_one(max_levels):
    with pytest.raises(ValueError, match="max_levels"):
        enumerate_level_structures(dollar(), max_levels=max_levels)


def test_stabilize_graph_records_the_contraction():
    # t is a bare tail under v; then v, a one-leg tail, slides z onto a;
    # m is a foreign bridge between a and b, merged into ctr:e1
    g = MarkedDualGraph.build(
        [("a", 1), ("v", 0), ("t", 0), ("m", 0), ("b", 1)],
        [("e3", ("v", "a")), ("e4", ("t", "v")), ("e2", ("m", "b")), ("e1", ("a", "m"))],
        [("z", "v", 1), ("p", "b", -1)])
    st, rec = stabilize_graph(g)
    assert st == MarkedDualGraph.build([("a", 1), ("b", 1)], [("ctr:e1", ("a", "b"))],
                                       [("z", "a", 1), ("p", "b", -1)])
    assert rec.edge_map == {"e1": ("ctr:e1", 1), "e2": ("", 0), "e3": None, "e4": None}
    assert rec.contracted == {"t": ("tail", "v"), "v": ("tail", "a"),
                              "m": ("bridge", "ctr:e1")}
    assert rec.under == {"ctr:e1.0": "e1.0", "ctr:e1.1": "e2.1"}
    assert rec.moved_legs == {"z": "v"}


def test_stabilize_graph_names_a_twist_pair_after_its_edge():
    # e:b is listed first but the e:a end leads; the chain through m1, m2
    # merges twice, and x, running into a, maps onto the image reversed
    g = MarkedDualGraph.build(
        [("a", 1), ("w", 0), ("b", 1)], [("e:b", ("b", "w")), ("e:a", ("a", "w"))],
        [("z", "a", 1), ("p", "b", -1)])
    st, rec = stabilize_graph(g)
    assert st.edges == (("e", ("a", "b")),)
    assert rec.edge_map == {"e:a": ("e", 1), "e:b": ("", 0)}
    assert rec.under == {"e.0": "e:a.0", "e.1": "e:b.0"}
    chain = MarkedDualGraph.build(
        [("a", 1), ("m1", 0), ("m2", 0), ("b", 1)],
        [("x", ("m1", "a")), ("y", ("m1", "m2")), ("w", ("m2", "b"))])
    st, rec = stabilize_graph(chain)
    assert st.edges == (("ctr:ctr:x", ("a", "b")),)
    assert rec.edge_map == {"x": ("ctr:ctr:x", -1), "y": ("", 0), "w": ("", 0)}
    assert rec.under == {"ctr:ctr:x.0": "x.1", "ctr:ctr:x.1": "w.1"}


def test_stabilize_graph_keeps_collapsed_edges_beside_an_edge_named_by_the_empty_string():
    # y collapses into ("", 0) when m1 goes; merging the edge "" at m2 once
    # took that sentinel for an image of "" and sent y to ("ctr:", 0)
    chain = MarkedDualGraph.build(
        [("a", 1), ("m1", 0), ("m2", 0), ("b", 1)],
        [("x", ("a", "m1")), ("y", ("m1", "m2")), ("", ("m2", "b"))])
    st, rec = stabilize_graph(chain)
    assert st.edges == (("ctr:", ("b", "a")),)
    assert rec.edge_map == {"x": ("", 0), "y": ("", 0), "": ("ctr:", -1)}


@pytest.mark.parametrize("names, merged", [
    (("x", "x:a", "x:b"), "ctr:x"),
    (("ctr:e1", "e1", "e2"), "ctr:ctr:e1"),
])
def test_stabilize_graph_never_merges_onto_an_existing_edge(names, merged):
    # the merged name once overwrote the edge a-b of the same name, losing a node
    kept, first, second = names
    g = MarkedDualGraph.build(
        [("a", 1), ("m", 0), ("b", 1)],
        [(kept, ("a", "b")), (first, ("a", "m")), (second, ("m", "b"))],
        [("z", "a", 1), ("p", "b", -1)])
    st, rec = stabilize_graph(g)
    assert st.edges == ((kept, ("a", "b")), (merged, ("a", "b")))
    assert st.total_genus == g.total_genus == 3
    assert rec.edge_map[first] == (merged, 1)


def test_a_pole_carrying_walk_may_reach_256_levels():
    # one candidate, the path levelled from its pole leg down; a depth is
    # one byte of a candidate, so a deeper walk is refused, not wrapped
    for n in (256, 257):
        g = MarkedDualGraph.build(
            [(f"v{i}", 1) for i in range(n)], [(f"e{i}", (f"v{i}", f"v{i + 1}")) for i in range(n - 1)],
            [("p", "v0", -2), ("z", "v1", 2)])
        if n == 256:
            [levels] = enumerate_level_structures(g, pole_carrying=True)
            assert levels.of == {f"v{i}": -i for i in range(n)}
        else:
            with pytest.raises(ValueError):
                enumerate_level_structures(g, pole_carrying=True)
