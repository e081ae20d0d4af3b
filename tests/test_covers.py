import random

from drloci.covers import (CombinatorialCover, closure_via_covers,
                           stabilize_marked_graph, validate_cover)
from drloci.fixtures import load_cover, load_graph
from drloci.graphs import MarkedDualGraph, isomorphic
from plain_stabilize import stabilize_marked_graph as plain_stabilize_marked_graph
from randgen import random_connected_graph


def degree2_cover(mults=(2, 2)):
    source = MarkedDualGraph.build(
        [("c1", 0), ("c2", 1)], [("e", ("c1", "c2"))],
        [("z1", "c1", 1), ("z2", "c1", 1), ("p1", "c1", -1), ("p2", "c1", -1),
         ("b0", "c1", 0),
         ("b1", "c2", 0), ("b2", "c2", 0), ("b3", "c2", 0)])
    target = MarkedDualGraph.build(
        [("D1", 0), ("D2", 0)], [("t", ("D1", "D2"))],
        [("t0", "D1", 1), ("tinf", "D1", -1), ("tb0", "D1", 0),
         ("tb1", "D2", 0), ("tb2", "D2", 0), ("tb3", "D2", 0)])
    return CombinatorialCover(
        source, target,
        {"c1": "D1", "c2": "D2"}, {"e": "t"},
        {"z1": "t0", "z2": "t0", "p1": "tinf", "p2": "tinf",
         "b0": "tb0", "b1": "tb1", "b2": "tb2", "b3": "tb3"},
        {"e.0": mults[0], "e.1": mults[1], "z1": 1, "z2": 1, "p1": 1, "p2": 1,
         "b0": 2, "b1": 2, "b2": 2, "b3": 2},
        {"c1": 2, "c2": 2})


def test_degree2_cover_valid():
    report = validate_cover(degree2_cover())
    assert report.ok, report.violations
    assert report.degree == 2
    assert report.type_profiles["t0"] == (1, 1)
    assert report.type_profiles["tb0"] == (2,)


def test_mismatched_node_multiplicities_rejected():
    report = validate_cover(degree2_cover(mults=(2, 1)))
    assert any(c == "node-mult" for c, _, _ in report.violations)


def test_cover_validation_invariant_under_target_relabeling():
    c = degree2_cover()
    relabeled_target = MarkedDualGraph.build(
        [("X", 0), ("Y", 0)], [("tt", ("X", "Y"))],
        [("t0", "X", 1), ("tinf", "X", -1), ("tb0", "X", 0),
         ("tb1", "Y", 0), ("tb2", "Y", 0), ("tb3", "Y", 0)])
    c2 = CombinatorialCover(
        c.source, relabeled_target,
        {"c1": "X", "c2": "Y"}, {"e": "tt"}, c.leg_map, c.mults, c.degrees)
    assert validate_cover(c2).ok == validate_cover(c).ok is True


def test_cherry_cover_fixture_valid_and_accepted():
    cover = load_cover("cherry")
    report = validate_cover(cover)
    assert report.ok and report.degree == 2
    graph = load_graph("cherry")
    verdict = closure_via_covers(graph, graph.mu, cover)
    assert verdict["accepted"], verdict["reasons"]


def test_dollar_cover_fixture_accepted():
    cover = load_cover("dollar_cover")
    graph = load_graph("dollar_cover")
    report = validate_cover(cover)
    assert report.ok and report.degree == 3
    assert report.type_profiles["t0"] == (1, 1, 1)
    assert report.type_profiles["tinf"] == (3,)
    verdict = closure_via_covers(graph, graph.mu, cover)
    assert verdict["accepted"], verdict["reasons"]


def test_wrong_stabilization_rejected():
    cover = load_cover("dollar_cover")
    wrong = MarkedDualGraph.build(
        [("v1", 1), ("v2", 0)],
        [(q, ("v1", "v2")) for q in ("q1", "q2", "q3")],
        [("p", "v2", -3), ("z1", "v2", 1), ("z2", "v2", 1), ("z3", "v2", 1)])
    verdict = closure_via_covers(wrong, wrong.mu, cover)
    assert not verdict["accepted"]
    assert any("stabilized" in r for r in verdict["reasons"])


def test_unstable_source_components_allowed():
    # the smooth-source example: a hyperelliptic curve with an unstable
    # rational tail attached over one branch point, tail over the second
    # target vertex; the stabilization is the smooth curve itself
    source = MarkedDualGraph.build(
        [("x", 2), ("u", 0)], [("e", ("x", "u"))],
        [("z", "x", 2), ("p", "x", -2),
         ("w2", "x", 0), ("w3", "x", 0), ("w4", "x", 0), ("cu", "u", 0)])
    target = MarkedDualGraph.build(
        [("D1", 0), ("D2", 0)], [("t", ("D1", "D2"))],
        [("t0", "D1", 1), ("tinf", "D1", -1),
         ("b2", "D1", 0), ("b3", "D1", 0), ("b4", "D1", 0), ("bu", "D2", 0)])
    cover = CombinatorialCover(
        source, target,
        {"x": "D1", "u": "D2"}, {"e": "t"},
        {"z": "t0", "p": "tinf", "w2": "b2", "w3": "b3", "w4": "b4", "cu": "bu"},
        {"e.0": 2, "e.1": 2, "z": 2, "p": 2, "w2": 2, "w3": 2, "w4": 2, "cu": 2},
        {"x": 2, "u": 2})
    assert validate_cover(cover).ok, validate_cover(cover).violations
    smooth = MarkedDualGraph.build([("x", 2)], [], [("z", "x", 2), ("p", "x", -2)])
    verdict = closure_via_covers(smooth, (2, -2), cover)
    assert verdict["accepted"], verdict["reasons"]


def test_stabilize_marked_graph_slides_leg():
    g = MarkedDualGraph.build(
        [("a", 1), ("t", 0)], [("e", ("a", "t"))], [("z", "t", 1), ("w", "a", -1)])
    st = stabilize_marked_graph(g)
    assert st.vertex_ids == ("a",)
    assert {(l, v) for l, v, _ in st.legs} == {("z", "a"), ("w", "a")}


def test_cover_json_round_trip():
    cover = load_cover("cherry")
    assert CombinatorialCover.from_json(cover.to_json()) == cover


def test_stabilize_marked_graph_contracts_bridge():
    # an unmarked rational vertex on two nodes is replaced by one node
    g = MarkedDualGraph.build(
        [("a", 1), ("m", 0), ("b", 1)], [("e2", ("m", "b")), ("e1", ("a", "m"))],
        [("z", "a", 1), ("p", "b", -1)])
    st = stabilize_marked_graph(g)
    assert st.vertex_ids == ("a", "b")
    # the merged node runs from the outer end of the least edge, e1 at a
    assert st.edges == (("ctr:e1", ("a", "b")),)
    assert st.legs == (("p", "b", -1), ("z", "a", 1))
    # a rational vertex on a lone self-loop is not a stabilization input: kept
    loop = MarkedDualGraph.build([("m", 0)], [("l", ("m", "m"))])
    assert stabilize_marked_graph(loop) == loop


def test_stabilize_marked_graph_agrees_with_the_plain_sweep():
    # the plain reference interleaves tails and bridges; contraction order
    # must not change the stable graph up to isomorphism
    rng = random.Random(1901)
    changed = 0
    for _ in range(1500):
        g = random_connected_graph(rng, max_vertices=6, max_extra_edges=2,
                                   max_legs=3, max_genus=1)
        st = stabilize_marked_graph(g)
        assert isomorphic(st, plain_stabilize_marked_graph(g)), g
        changed += st != MarkedDualGraph.build(sorted(g.vertices), sorted(g.edges),
                                               sorted(g.legs))
    assert changed > 500
