import hashlib
import json
import random

import pytest

from drloci.decorations import (TwdrDecoration, TwrDecoration, site_key, validate_twdr,
                                validate_twr)
from drloci.fixtures import FIXTURES, load_decoration, load_graph, load_levels
from drloci.graphs import (LevelStructure, MarkedDualGraph, half_edge_id, split_half_edge,
                           validate)
from drloci.twisting import TwistError, check_local_max, stabilize, twist
from plain_pushforward import pushforward_check
from randgen import random_twr


def two_vertex_twr(orders, genera=(1, 1), legs=(("z", "a", 2), ("p", "a", -2))):
    g = MarkedDualGraph.build(
        [("a", genera[0]), ("b", genera[1])], [("e", ("a", "b"))], legs)
    lv = LevelStructure.build({"a": 0, "b": -1})
    return g, lv, TwrDecoration.build(orders)


def test_bridge_at_double_zero_edge():
    # both node orders 0: the bridge carries a degree-2 function with two
    # simple extra critical legs, inserted just below the lower end
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 1)], [("e", ("a", "b"))],
        [("z", "a", 1), ("p", "a", -1), ("z2", "b", 1), ("p2", "b", -1)])
    lv = LevelStructure.build({"a": 0, "b": -1})
    dec = TwrDecoration.build({"e.0": (0, False), "e.1": (0, False)})
    tw = twist(g, lv, dec)
    w = "tw0"
    assert w in tw.graph.genus_of and tw.graph.genus_of[w] == 0
    ha = tw.decoration.base.order_of[half_edge_id("e:a", 1)]
    hb = tw.decoration.base.order_of[half_edge_id("e:b", 0)]
    assert ha == (-2, True) and hb == (-2, True)
    assert len(tw.decoration.extra_at(w)) == 2
    assert tw.levels.of["a"] > tw.levels.of["b"] > tw.levels.of[w]


def test_bridge_at_mixed_edge_orders():
    # orders (1, -2): bridge orders (-3, 0), pole toward the upper end,
    # level strictly between the two ends
    g, lv, dec = two_vertex_twr({"e.0": (1, False), "e.1": (-2, True)})
    tw = twist(g, lv, dec)
    assert tw.decoration.base.order_of[half_edge_id("e:a", 1)] == (-3, True)
    assert tw.decoration.base.order_of[half_edge_id("e:b", 0)] == (0, False)
    assert len(tw.decoration.extra_at("tw0")) == 1
    assert tw.levels.of["a"] > tw.levels.of["tw0"] > tw.levels.of["b"]
    assert validate_twdr(tw.graph, tw.levels, tw.decoration).ok


def test_twist_identity_when_already_exact():
    g, lv, dec = two_vertex_twr({"e.0": (1, False), "e.1": (-3, True)},
                                genera=(1, 2))
    tw = twist(g, lv, dec)
    assert tw.graph.vertex_ids == g.vertex_ids
    assert [e for e, _ in tw.graph.edges] == ["e"]


def test_bridge_ids_are_vertex_ids_without_a_colon():
    # site keys split at the first colon, so a bridge id holds none; edge ids
    # may hold one and are not embedded, and an id the graph uses is skipped
    g = MarkedDualGraph.build([("a", 1), ("tw0", 1)],
                              [("e:a", ("a", "tw0")), ("ctr:e1", ("a", "tw0"))],
                              [("z", "a", 2), ("p", "a", -2)])
    lv = LevelStructure.build({"a": 0, "tw0": -1})
    dec = TwrDecoration.build({"e:a.0": (1, False), "e:a.1": (-2, True),
                               "ctr:e1.0": (1, False), "ctr:e1.1": (-2, True)})
    tw = twist(g, lv, dec)
    assert tw.graph.vertex_ids == ("a", "tw0", "tw1", "tw2")
    assert tw.contraction.contracted == {"tw1": ("bridge", "e:a"),
                                                  "tw2": ("bridge", "ctr:e1")}
    assert validate(tw.graph).ok
    assert stabilize(tw.graph, tw.levels, tw.decoration)[:3] == (g, lv, dec)


def test_twist_of_every_fixture_decoration_is_a_valid_graph():
    bridged = []
    for name, fx in FIXTURES.items():
        if "decoration" not in fx:
            continue
        g, dec = load_graph(name), load_decoration(name)
        for key in (k for k in fx if k.startswith("levels")):
            lv = load_levels(name, key)
            if not validate_twr(g, lv, dec).ok:  # level_dependence: v5 is unstable
                continue
            tw = twist(g, lv, dec)
            assert validate(tw.graph).ok, (name, key)
            bridged += [(name, key)] * (len(tw.graph.vertices) > len(g.vertices))
    assert bridged == [("horizontal_nodes", "levels"), ("partial_order", "levels_1"),
                       ("partial_order", "levels_2")]


# sha256 of the sorted-key JSON of each bundled twist
TWIST_SHA256 = {
    ("cherry", "levels_1"): "fda91dda81b17e034ffb9f98800143e2eb31d6541b0a9f8361db762e89702320",
    ("cherry", "levels_2"): "b1cb91ab2c5f8082357b3a4c169fa24982ef2222bb5227b75a3b3f3cd16d9dff",
    ("dollar_unmarked_zeros", "levels"):
        "9f874e0173520fe20e81d817331a01a81a54c1720790603fe50b979b13e18d7f",
    ("horizontal_nodes", "levels"):
        "1ece464dcec0f16c1d9d32a2ee806dc3b0b109ad989464e4009e395ce1279c5e",
    ("partial_order", "levels_1"):
        "a95f871d0f25ef4e532d0920bb5a59e552b4817806267c810f71771e4486ef65",
    ("partial_order", "levels_2"):
        "5c361fa8f93b7d27ef619dfc6be045ea2dc6c68c7b2bf751111e84df2ff5bf5a",
}


def test_twist_bytes_of_every_fixture_decoration_are_pinned():
    twisted = {}
    for name, fx in FIXTURES.items():
        for key in (k for k in fx if k.startswith("levels") and "decoration" in fx):
            g, lv, dec = load_graph(name), load_levels(name, key), load_decoration(name)
            if validate_twr(g, lv, dec).ok:
                text = json.dumps(twist(g, lv, dec).to_json(), sort_keys=True)
                twisted[name, key] = hashlib.sha256(text.encode()).hexdigest()
    assert twisted == TWIST_SHA256


def test_twist_names_bridge_edges_the_graph_does_not_use():
    # the bridge of e cannot take e:a, an edge of the graph; a leg named like
    # a half-edge of a bridge's edge blocks that name too
    for leg in ("z", "tw:e:a.1"):
        g = MarkedDualGraph.build([("a", 1), ("b", 1)], [("e", ("a", "b")), ("e:a", ("a", "b"))],
                                  [(leg, "a", 2), ("p", "a", -2)])
        lv = LevelStructure.build({"a": 0, "b": -1})
        dec = TwrDecoration.build({"e.0": (1, False), "e.1": (-2, True),
                                   "e:a.0": (1, False), "e:a.1": (-3, True)})
        tw = twist(g, lv, dec)
        assert validate(tw.graph).ok
        bridge = {"z": ["tw:e:a", "tw:e:b"], "tw:e:a.1": ["tw2:e:a", "tw2:e:b"]}[leg]
        assert [e for e, _ in tw.graph.edges] == [*bridge, "e:a"]
        # stabilization names the merged edge e again
        back, back_levels, back_dec, _ = stabilize(tw.graph, tw.levels, tw.decoration)
        assert back == g and back_levels == lv and back_dec.order_of == dec.order_of


def test_twist_of_an_edge_named_like_an_escaped_bridge_round_trips():
    # tw:x once became the bridge pair tw:x:a/tw:x:b, which stabilization
    # read back as the edge x
    g = MarkedDualGraph.build([("a", 1), ("b", 1)], [("tw:x", ("a", "b"))],
                              [("z", "a", 2), ("p", "a", -2)])
    lv = LevelStructure.build({"a": 0, "b": -1})
    dec = TwrDecoration.build({"tw:x.0": (1, False), "tw:x.1": (-2, True)})
    tw = twist(g, lv, dec)
    assert [e for e, _ in tw.graph.edges] == ["tw:tw:x:a", "tw:tw:x:b"]
    assert tw.contraction.contracted == {"tw0": ("bridge", "tw:x")}
    assert tw.contraction.edge_map == {"tw:tw:x:a": ("tw:x", 1), "tw:tw:x:b": ("", 0)}
    assert stabilize(tw.graph, tw.levels, tw.decoration)[:3] == (g, lv, dec)


def test_twist_of_an_edge_named_by_the_empty_string_round_trips():
    # the bridge pair :a/:b of the edge "" was once not read back as a
    # bridge pair, so its stabilization named the merged edge ctr::a
    g = MarkedDualGraph.build([("a", 1), ("b", 1)], [("", ("a", "b"))],
                              [("z", "a", 2), ("p", "a", -2)])
    lv = LevelStructure.build({"a": 0, "b": -1})
    dec = TwrDecoration.build({".0": (1, False), ".1": (-2, True)})
    tw = twist(g, lv, dec)
    assert [e for e, _ in tw.graph.edges] == [":a", ":b"]
    assert tw.contraction.edge_map == {":a": ("", 1), ":b": ("", 0)}
    assert stabilize(tw.graph, tw.levels, tw.decoration)[:3] == (g, lv, dec)


def test_twist_refuses_a_twist_that_stabilizes_to_another_graph(monkeypatch):
    # no known input reaches this guard, so stabilization is made to name
    # the merged edge ctr:e, as it once named the merged edge of "" ctr::a
    import drloci.twisting as twisting
    stabilize_back = twisting.stabilize

    def stabilize_renamed(*args):
        back, *rest = stabilize_back(*args)
        renamed = [(f"ctr:{e}", ends) for e, ends in back.edges]
        return MarkedDualGraph.build(back.vertices, renamed, back.legs), *rest

    monkeypatch.setattr(twisting, "stabilize", stabilize_renamed)
    g, lv, dec = two_vertex_twr({"e.0": (1, False), "e.1": (-2, True)})
    with pytest.raises(TwistError, match="^the stabilization of the twist is not its input$"):
        twist(g, lv, dec)


def with_edge_ids(g, dec, ids):
    """The graph and decoration with the edges renamed to ``ids``, in order."""
    new = dict(zip((e for e, _ in g.edges), ids))

    def renamed(hid):
        e, side = split_half_edge(hid)
        return half_edge_id(new[e], side)

    values = {}
    for key, value in dec.values:
        v, point = key.split(":", 1)
        values[site_key(v, renamed(point))] = value
    return (MarkedDualGraph.build(g.vertices, [(new[e], ends) for e, ends in g.edges], g.legs),
            TwrDecoration.build({renamed(h): o for h, o in dec.orders}, values,
                                dec.marked_zero_vertices))


def test_twist_round_trips_with_edge_ids_like_bridge_names():
    pool = ["x", "y", "tw:x", "tw:y:a", "tw:tw:x", "x:a", "x:b", "tw:x:a"]
    bridged = 0
    for seed in range(3000):
        rng = random.Random(seed)
        g, lv, dec = random_twr(rng)
        g, dec = with_edge_ids(g, dec, rng.sample(pool, len(g.edges)))
        tw = twist(g, lv, dec)
        *back, cm = stabilize(tw.graph, tw.levels, tw.decoration)
        assert back == [g, lv, dec] and cm == tw.contraction, seed
        bridged += len(tw.graph.vertices) > len(g.vertices)
    assert bridged > 2000


def test_twist_rejects_invalid_input():
    g, lv, _ = two_vertex_twr({"e.0": (0, False), "e.1": (0, False)})
    bad = TwrDecoration.build({"e.0": (0, False), "e.1": (-4, True)})  # sum -4
    with pytest.raises(TwistError):
        twist(g, lv, bad)


def test_extension_partition_of_twist():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    tw = twist(g, lv, load_decoration("dollar_unmarked_zeros"))
    assert sum(tw.extended_partition) == 2 * g.total_genus - 2
    assert tw.extended_partition == (-4, 0, 0, 0, 1, 1, 1, 1, 1, 1)


def test_contracted_bridge_recovers_order_sum():
    # one extra-critical leg of order 1 between orders summing to -1
    g, lv, dec = two_vertex_twr({"e.0": (1, False), "e.1": (-2, True)})
    tw = twist(g, lv, dec)
    g2, lv2, dec2, _ = stabilize(tw.graph, tw.levels, tw.decoration)
    o0, _ = dec2.order_of["e.0"]
    o1, _ = dec2.order_of["e.1"]
    assert o0 + o1 == -1 > -2


def test_round_trip_on_fixture():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    dec = load_decoration("horizontal_nodes")
    tw = twist(g, lv, dec)
    assert tw.levels.depth + 1 == 3
    g2, lv2, dec2, cm = stabilize(tw.graph, tw.levels, tw.decoration)
    assert (g2, lv2, dec2) == (g, lv, dec)
    assert sum(1 for e, _ in g2.edges if lv2.is_horizontal(g2, e)) == 1


def test_check_local_max_flags_marked_tail():
    g = MarkedDualGraph.build(
        [("a", 1), ("t", 0)], [("e", ("a", "t"))],
        [("p", "t", -1), ("z", "a", 1)])
    lv = LevelStructure.build({"a": 0, "t": -1})
    dec = TwdrDecoration.build(
        TwrDecoration.build({"e.0": (0, False), "e.1": (-2, True)}), [])
    rep = check_local_max(g, lv, dec)
    assert any(w == "t" for _, w, _ in rep.violations)


def test_check_local_max_flags_two_valent_maximum():
    g = MarkedDualGraph.build(
        [("a", 1), ("m", 0), ("b", 1)],
        [("e1", ("m", "a")), ("e2", ("m", "b"))],
        [("z", "a", 1), ("p", "b", -1)])
    lv = LevelStructure.build({"m": 0, "a": -1, "b": -1})
    dec = TwdrDecoration.build(
        TwrDecoration.build({"e1.0": (0, False), "e1.1": (-2, True),
                             "e2.0": (0, False), "e2.1": (-2, True)}), [])
    rep = check_local_max(g, lv, dec)
    assert any(w == "m" and "maximum" in d for _, w, d in rep.violations)


def test_twist_outputs_pass_local_max():
    rng = random.Random(5)
    for _ in range(20):
        g, lv, dec = random_twr(rng)
        tw = twist(g, lv, dec)
        assert check_local_max(tw.graph, tw.levels, tw.decoration).ok


def test_stabilize_deletes_bare_tail():
    # a hand-built fully marked decoration with a rational tail
    g = MarkedDualGraph.build(
        [("a", 2), ("t", 0)], [("e", ("a", "t"))],
        [("z", "a", 2), ("p", "a", -2)])
    lv = LevelStructure.build({"a": 0, "t": -1})
    base = TwrDecoration.build({"e.0": (1, False), "e.1": (-3, True)})
    twdr = TwdrDecoration.build(
        base, [("c0", "a", 1), ("c2", "a", 1), ("c3", "a", 1), ("c1", "t", 1)])
    g2, lv2, dec2, cm = stabilize(g, lv, twdr)
    assert g2.vertex_ids == ("a",)
    assert g2.edges == ()
    assert cm.contracted == {"t": ("tail", "a")}
    assert lv2.of == {"a": 0}


def test_pushforward_checks_on_random_twrs():
    rng = random.Random(23)
    for _ in range(25):
        g, lv, dec = random_twr(rng)
        tw = twist(g, lv, dec)
        g2, lv2, dec2, cm = stabilize(tw.graph, tw.levels, tw.decoration)
        assert (g2, lv2, dec2) == (g, lv, dec)
        pf = pushforward_check(tw.graph, tw.levels, tw.decoration, g2, dec2, cm)
        assert pf.ok, pf.details


def test_stabilize_names_a_foreign_bridge_by_its_least_edge():
    # a rational bridge that twist did not make (its edges are not e:a, e:b)
    g = MarkedDualGraph.build(
        [("a", 1), ("m", 0), ("b", 1)], [("e2", ("m", "b")), ("e1", ("a", "m"))],
        [("z", "a", 1), ("p", "a", -1)])
    lv = LevelStructure.build({"a": 0, "m": -1, "b": -2})
    base = TwrDecoration.build({"e1.0": (0, False), "e1.1": (-2, True),
                                "e2.0": (0, False), "e2.1": (-2, True)})
    twdr = TwdrDecoration.build(
        base, [("c0", "a", 1), ("c1", "a", 1), ("c2", "b", 1), ("c3", "b", 1)])
    g2, lv2, dec2, cm = stabilize(g, lv, twdr)
    assert g2.edges == (("ctr:e1", ("a", "b")),)
    assert dec2.order_of == {"ctr:e1.0": (0, False), "ctr:e1.1": (-2, True)}
    assert cm.contracted == {"m": ("bridge", "ctr:e1")}
    assert cm.edge_map == {"e1": ("ctr:e1", 1), "e2": ("", 0)}
    assert lv2.of == {"a": 0, "b": -1}


def valid_twdr(vertices, edges, legs, levels, orders, extra_legs):
    g = MarkedDualGraph.build(vertices, edges, legs)
    lv = LevelStructure.build(levels)
    twdr = TwdrDecoration.build(TwrDecoration.build(orders), extra_legs)
    assert validate_twdr(g, lv, twdr).ok and check_local_max(g, lv, twdr).ok
    return g, lv, twdr


def test_stabilize_refuses_a_marked_component_left_unstable():
    # deleting the bare tail t leaves v, marked by z, on one node: covers
    # would slide z onto a, the stabilization of a decoration refuses
    g, lv, twdr = valid_twdr(
        [("a", 1), ("v", 0), ("t", 0)], [("e1", ("a", "v")), ("e2", ("v", "t"))],
        [("p", "a", -1), ("z", "v", 1)], {"a": 0, "v": -1, "t": -2},
        {"e1.0": (0, False), "e1.1": (-2, True), "e2.0": (0, False), "e2.1": (-2, True)},
        [("c0", "a", 1), ("c1", "a", 1)])
    with pytest.raises(TwistError, match="^stabilization leaves marked component v unstable$"):
        stabilize(g, lv, twdr)
    # the same tail under a vertex that keeps both legs but no node
    g, lv, twdr = valid_twdr(
        [("v", 0), ("t", 0)], [("e", ("v", "t"))], [("z", "v", 1), ("p", "v", -1)],
        {"v": 0, "t": -1}, {"e.0": (0, False), "e.1": (-2, True)}, [])
    with pytest.raises(TwistError, match="^stabilization leaves marked component v unstable$"):
        stabilize(g, lv, twdr)


def test_stabilize_refuses_an_unstable_self_loop(monkeypatch):
    # two rational vertices on a double edge contract to a lone self-loop;
    # no valid fully marked decoration has this shape (both nodes at the
    # upper vertex are zeros, so its df orders cannot sum to -2), so the
    # gates are switched off to reach it
    import drloci.twisting as twisting
    from drloci.decorations import DecorationReport
    monkeypatch.setattr(twisting, "validate_twdr", lambda *args: DecorationReport())
    monkeypatch.setattr(twisting, "check_local_max", lambda *args: DecorationReport())
    g = MarkedDualGraph.build([("a", 0), ("m", 0)], [("e1", ("a", "m")), ("e2", ("m", "a"))])
    lv = LevelStructure.build({"a": 0, "m": -1})
    with pytest.raises(TwistError, match="^unstable self-loop at m cannot be contracted$"):
        stabilize(g, lv, TwdrDecoration.build(TwrDecoration.build(
            {"e1.0": (0, False), "e1.1": (-2, True), "e2.0": (-2, True), "e2.1": (0, False)}), []))
