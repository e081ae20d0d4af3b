from fractions import Fraction

import pytest

from drloci.decorations import (TwdrDecoration, TwrDecoration, component_divisor,
                                validate_twdr, validate_twr)
from drloci.fixtures import load_decoration, load_graph, load_levels
from drloci.graphs import LevelStructure, MarkedDualGraph
from drloci.twisting import twist


def test_unmarked_zeros_fixture_is_valid():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    dec = load_decoration("dollar_unmarked_zeros")
    rep = validate_twr(g, lv, dec)
    assert rep.ok
    assert {v: sum(poles.values()) for v, (_, poles, _) in rep.divisors.items()} == {
        "v1": 3, "v2": 3}
    assert rep.deficits == {"v1": 2, "v2": 4}


def test_degree_balance_readable_from_decoration():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    rep = validate_twr(g, lv, load_decoration("dollar_unmarked_zeros"))
    # on the marked-zero component the known zero orders exhaust the degree
    unmarked = {v: sum(poles.values()) - sum(zeros.values())
                for v, (zeros, poles, _) in rep.divisors.items()}
    assert unmarked["v2"] == 0
    assert unmarked["v1"] == 3


def test_component_divisor_reads_legs_and_node_preimages():
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 1)], [("e", ("a", "b")), ("f", ("a", "b"))],
        [("z", "a", 2), ("w", "a", 0), ("p", "a", -1), ("q", "b", -1)])
    dec = TwrDecoration.build({"e.0": (1, False), "e.1": (-3, True), "f.0": (0, False)},
                              {"a:f.0": Fraction(0)})
    # a leg of mu 0 is a zero (of multiplicity 0); value 0 makes f.0 a nodal zero
    assert component_divisor(g, dec, "a") == ({"z": 2, "w": 0, "a:f.0": 1}, {"p": 1},
                                              {"a:e.0": 2})
    # f.1 has no order and is skipped
    assert component_divisor(g, dec, "b") == ({}, {"q": 1, "b:e.1": 2}, {})


def test_explicit_marked_zero_vertices_replace_the_legs():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    dec = load_decoration("dollar_unmarked_zeros")
    assert dec.marked_zero_vertices is None
    # v1 has unmarked zero orders left, so declaring it marked breaks its balance
    both = TwrDecoration.build(dec.order_of, dec.value_of, ["v1", "v2"])
    rep = validate_twr(g, lv, both)
    assert [(c, w) for c, w, _ in rep.violations] == [("prescribed-vanishing", "v1")]
    assert validate_twr(g, lv, TwrDecoration.build(dec.order_of, dec.value_of, [])).ok


def test_pole_on_horizontal_edge_rejected():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    dec = load_decoration("horizontal_nodes")
    orders = dict(dec.order_of)
    orders["q3.0"] = (1, False)
    orders["q3.1"] = (-2, True)  # pole on one side of the horizontal edge
    bad = TwrDecoration.build(orders, dict(dec.value_of))
    rep = validate_twr(g, lv, bad)
    assert any(c == "level-compatibility" for c, _, _ in rep.violations)


def test_edge_sum_below_minus_two_rejected():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    dec = load_decoration("dollar_unmarked_zeros")
    orders = dict(dec.order_of)
    orders["q1.1"] = (-3, True)  # sum 0 + (-3) = -3
    rep = validate_twr(g, lv, TwrDecoration.build(orders))
    assert any(c == "matching-order" and w == "q1" for c, w, _ in rep.violations)


def test_ord_minus_one_rejected():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    orders = dict(load_decoration("dollar_unmarked_zeros").order_of)
    orders["q1.0"] = (-1, True)
    rep = validate_twr(g, lv, TwrDecoration.build(orders))
    assert any(c == "order-range" for c, _, _ in rep.violations)


def test_ord_minus_one_opposite_a_pole_reported():
    # q1.1 is a pole, so the multiplicity cross-check once sent -1 to
    # the inverse of ord_df, which raised instead of reporting
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    orders = dict(load_decoration("dollar_unmarked_zeros").order_of)
    orders["q1.0"] = (-1, False)
    rep = validate_twr(g, lv, TwrDecoration.build(orders))
    assert ("order-range", "q1.0", "ord(df) = -1 is impossible") in rep.violations


@pytest.mark.parametrize("marked", ["v1", {"v1": True}, ["v1", 2], [None]])
def test_marked_zero_vertices_must_be_a_list_of_ids(marked):
    doc = load_decoration("dollar_unmarked_zeros").to_json()
    with pytest.raises(ValueError, match="marked_zero_vertices must be a list of vertex ids"):
        TwrDecoration.from_json({**doc, "marked_zero_vertices": marked})


def test_marked_zero_vertex_that_is_not_a_vertex_reported():
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    doc = load_decoration("dollar_unmarked_zeros").to_json()
    dec = TwrDecoration.from_json({**doc, "marked_zero_vertices": ["v9"]})
    assert dec.marked_zero_vertices == ("v9",)
    rep = validate_twr(g, lv, dec)
    assert ("structure", "v9", "marked zero vertex is not a vertex") in rep.violations


def test_twist_output_is_valid_twdr():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    tw = twist(g, lv, load_decoration("horizontal_nodes"))
    assert validate_twdr(tw.graph, tw.levels, tw.decoration).ok


def test_twdr_with_horizontal_edge_rejected():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    dec = load_decoration("horizontal_nodes")
    # declare the inequality-form decoration fully marked without twisting:
    # the horizontal edge q3 and its order sum 0 both violate the strict form
    twdr = TwdrDecoration.build(dec, [])
    rep = validate_twdr(g, lv, twdr)
    assert any(c == "horizontal" for c, _, _ in rep.violations)


def test_twdr_genus_zero_order_identity():
    g = MarkedDualGraph.build(
        [("a", 0), ("b", 0)], [("e", ("a", "b"))],
        [("z", "a", 2), ("p", "b", -2)])
    lv = LevelStructure.build({"a": 0, "b": -1})
    dec = TwrDecoration.build({"e.0": (1, False), "e.1": (-3, True)})
    # per-vertex sums: a: (2-1) + 1 = 2 != -2 -> invalid as fully marked
    rep = validate_twdr(g, lv, TwdrDecoration.build(dec, []))
    assert any(c == "order-identity" for c, _, _ in rep.violations)


def test_marked_zero_component_must_close_balance():
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 1)], [("e", ("a", "b"))],
        [("z", "a", 1), ("p", "a", -3)])
    lv = LevelStructure.build({"a": 0, "b": -1})
    # zero orders on a: 1 marked but degree 3: needs nodal zeros, none given
    dec = TwrDecoration.build({"e.0": (0, False), "e.1": (-2, True)})
    rep = validate_twr(g, lv, dec)
    assert any(c == "prescribed-vanishing" and w == "a" for c, w, _ in rep.violations)


def test_decoration_json_round_trip():
    dec = load_decoration("horizontal_nodes")
    assert TwrDecoration.from_json(dec.to_json()) == dec
    g = load_graph("dollar_unmarked_zeros")
    lv = load_levels("dollar_unmarked_zeros")
    tw = twist(g, lv, load_decoration("dollar_unmarked_zeros"))
    assert TwdrDecoration.from_json(tw.decoration.to_json()) == tw.decoration
