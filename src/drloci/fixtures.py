"""Bundled example fixtures with expected outcomes.

Each fixture packages a marked dual graph, optionally a level structure
and decoration, optionally a hand-built admissible cover, and the
expected machine-checkable outcomes.  The corpus covers the worked
examples this library is calibrated against: the dollar curves in their
three flavors, the horizontal-node degeneration, the partial-order and
level-dependence pairs, and the cherry with its two tilted structures.
"""

from __future__ import annotations

from .covers import CombinatorialCover
from .decorations import TwrDecoration
from .graphs import LevelStructure, MarkedDualGraph


def _dollar_graph(legs) -> dict:
    return {
        "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
        "edges": [{"id": q, "ends": ["v1", "v2"]} for q in ("q1", "q2", "q3")],
        "legs": legs,
    }


FIXTURES: dict[str, dict] = {}

FIXTURES["theta"] = {
    "graph": {
        "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
        "edges": [{"id": e, "ends": ["v1", "v2"]} for e in ("e1", "e2", "e3")],
        "legs": [],
    },
    "expected": {"genus": 2, "stable": True, "h1_rank": 2},
}

# zeros on one vertex, the pole on the other: the "unmarked zeros" dollar
FIXTURES["dollar_unmarked_zeros"] = {
    "graph": _dollar_graph([
        {"id": "p", "vertex": "v1", "mu": -3},
        {"id": "z1", "vertex": "v2", "mu": 1},
        {"id": "z2", "vertex": "v2", "mu": 1},
        {"id": "z3", "vertex": "v2", "mu": 1},
    ]),
    "levels": {"v1": 0, "v2": -1},
    "decoration": {
        "orders": {
            "q1.0": {"ord_df": 0, "pole": False}, "q1.1": {"ord_df": -2, "pole": True},
            "q2.0": {"ord_df": 0, "pole": False}, "q2.1": {"ord_df": -2, "pole": True},
            "q3.0": {"ord_df": 0, "pole": False}, "q3.1": {"ord_df": -2, "pole": True},
        },
    },
    "expected": {
        "genus": 2,
        "level_structures": 3,
        "h1_rank": 4,
        "ev": {
            "0": {"vanishes": "conditional", "solution_dim": 1,
                   "forced_equal": [["v1:q1.0", "v1:q2.0", "v1:q3.0"]]},
            "-1": {"vanishes": True},
        },
        "search_families": 2,
        "member": True,
    },
}

# every leg on one vertex; carries the hand-built admissible cover
FIXTURES["dollar_cover"] = {
    "graph": _dollar_graph([
        {"id": "p", "vertex": "v2", "mu": -3},
        {"id": "z1", "vertex": "v2", "mu": 1},
        {"id": "z2", "vertex": "v2", "mu": 1},
        {"id": "z3", "vertex": "v2", "mu": 1},
    ]),
    "expected": {"genus": 2, "member": True, "cover_accepted": True},
    "cover": {
        "source": {
            "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
            "edges": [{"id": q, "ends": ["v1", "v2"]} for q in ("q1", "q2", "q3")],
            "legs": (
                [{"id": "p", "vertex": "v2", "mu": -3}]
                + [{"id": f"z{i}", "vertex": "v2", "mu": 1} for i in (1, 2, 3)]
                + [{"id": f"c{i}", "vertex": "v2", "mu": 0} for i in (1, 2)]
                + [{"id": f"c{i}x", "vertex": "v2", "mu": 0} for i in (1, 2)]
                + [{"id": f"c{i}", "vertex": "v1", "mu": 0} for i in (3, 4, 5, 6)]
                + [{"id": f"c{i}x", "vertex": "v1", "mu": 0} for i in (3, 4, 5, 6)]
            ),
        },
        "target": {
            "vertices": [{"id": "D1", "genus": 0}, {"id": "D2", "genus": 0}],
            "edges": [{"id": "t", "ends": ["D1", "D2"]}],
            "legs": (
                [{"id": "t0", "vertex": "D1", "mu": 1},
                 {"id": "tinf", "vertex": "D1", "mu": -1}]
                + [{"id": f"b{i}", "vertex": "D1", "mu": 0} for i in (1, 2)]
                + [{"id": f"b{i}", "vertex": "D2", "mu": 0} for i in (3, 4, 5, 6)]
            ),
        },
        "map": {
            "v1": "D2", "v2": "D1",
            "q1": "t", "q2": "t", "q3": "t",
            "p": "tinf", "z1": "t0", "z2": "t0", "z3": "t0",
            "c1": "b1", "c1x": "b1", "c2": "b2", "c2x": "b2",
            "c3": "b3", "c3x": "b3", "c4": "b4", "c4x": "b4",
            "c5": "b5", "c5x": "b5", "c6": "b6", "c6x": "b6",
        },
        "mults": {
            "q1.0": 1, "q1.1": 1, "q2.0": 1, "q2.1": 1, "q3.0": 1, "q3.1": 1,
            "p": 3, "z1": 1, "z2": 1, "z3": 1,
            "c1": 2, "c1x": 1, "c2": 2, "c2x": 1,
            "c3": 2, "c3x": 1, "c4": 2, "c4x": 1,
            "c5": 2, "c5x": 1, "c6": 2, "c6x": 1,
        },
        "degrees": {"v1": 3, "v2": 3},
    },
}

# zero-sum split of mu = (2,1,-2,-1): the value-matching family
FIXTURES["dollar_matching"] = {
    "graph": _dollar_graph([
        {"id": "z", "vertex": "v1", "mu": 2},
        {"id": "p", "vertex": "v1", "mu": -2},
        {"id": "zp", "vertex": "v2", "mu": 1},
        {"id": "pp", "vertex": "v2", "mu": -1},
    ]),
    "expected": {"genus": 2, "member": True, "search_families": 1,
                 "matching_pairs": 3},
}

FIXTURES["horizontal_nodes"] = {
    "graph": {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 0},
                     {"id": "v3", "genus": 0}],
        "edges": [{"id": "q1", "ends": ["v1", "v2"]},
                  {"id": "q2", "ends": ["v1", "v3"]},
                  {"id": "q3", "ends": ["v2", "v3"]}],
        "legs": [{"id": "z1", "vertex": "v1", "mu": 1},
                 {"id": "p", "vertex": "v1", "mu": -3},
                 {"id": "z2", "vertex": "v2", "mu": 1},
                 {"id": "z3", "vertex": "v3", "mu": 1}],
    },
    "levels": {"v1": 0, "v2": -1, "v3": -1},
    "decoration": {
        "orders": {
            "q1.0": {"ord_df": 0, "pole": False}, "q1.1": {"ord_df": -2, "pole": True},
            "q2.0": {"ord_df": 0, "pole": False}, "q2.1": {"ord_df": -2, "pole": True},
            "q3.0": {"ord_df": 0, "pole": False}, "q3.1": {"ord_df": 0, "pole": False},
        },
        "values": {"v1:q1.0": "0", "v1:q2.0": "0"},
    },
    "expected": {
        "genus": 2,
        "ev": {"0": {"vanishes": True},
               "-1": {"vanishes": "conditional", "solution_dim": 1,
                       "forced_equal": [["v2:q3.0", "v3:q3.1"]]}},
        "twist_levels": 3,
        "stabilized_horizontal_edges": 1,
        "stabilized_level_count": 2,
        "top_component_problem": {
            "degree": 3, "genus": 1,
            "profiles": [[3], [1, 1, 1], [2, 1], [2, 1], [2, 1], [2, 1]],
            "exists": True,
        },
    },
}

FIXTURES["partial_order"] = {
    "graph": {
        "vertices": [{"id": "v1", "genus": 2}, {"id": "v2", "genus": 1},
                     {"id": "v3", "genus": 1}],
        "edges": [{"id": "q1", "ends": ["v1", "v2"]},
                  {"id": "q2", "ends": ["v1", "v3"]},
                  {"id": "q3", "ends": ["v2", "v3"]}],
        "legs": [{"id": "z", "vertex": "v1", "mu": 4},
                 {"id": "p", "vertex": "v1", "mu": -4}],
    },
    "levels_1": {"v1": 0, "v2": -1, "v3": -1},
    "levels_2": {"v1": 0, "v2": -1, "v3": -2},
    "decoration": {
        "orders": {
            "q1.0": {"ord_df": 1, "pole": False}, "q1.1": {"ord_df": -3, "pole": True},
            "q2.0": {"ord_df": 1, "pole": False}, "q2.1": {"ord_df": -3, "pole": True},
            "q3.0": {"ord_df": 0, "pole": False}, "q3.1": {"ord_df": 0, "pole": False},
        },
    },
    "expected": {"genus": 5, "identical_top_level_systems": True},
}

FIXTURES["level_dependence"] = {
    "graph": {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 2},
                     {"id": "v3", "genus": 2}, {"id": "v4", "genus": 1},
                     {"id": "v5", "genus": 0}],
        "edges": [{"id": "q1", "ends": ["v1", "v2"]},
                  {"id": "q2", "ends": ["v1", "v3"]},
                  {"id": "q3", "ends": ["v2", "v4"]},
                  {"id": "q4", "ends": ["v3", "v4"]},
                  {"id": "q5", "ends": ["v2", "v5"]},
                  {"id": "q6", "ends": ["v3", "v5"]}],
        "legs": [{"id": "z", "vertex": "v1", "mu": 4},
                 {"id": "p", "vertex": "v1", "mu": -4}],
    },
    "levels_1": {"v1": 0, "v2": -1, "v3": -1, "v4": -2, "v5": -2},
    "levels_2": {"v1": 0, "v2": -1, "v3": -2, "v4": -3, "v5": -3},
    "decoration": {
        "orders": {
            "q1.0": {"ord_df": 1, "pole": False}, "q1.1": {"ord_df": -3, "pole": True},
            "q2.0": {"ord_df": 1, "pole": False}, "q2.1": {"ord_df": -3, "pole": True},
            "q3.0": {"ord_df": 0, "pole": False}, "q3.1": {"ord_df": -2, "pole": True},
            "q4.0": {"ord_df": 0, "pole": False}, "q4.1": {"ord_df": -2, "pole": True},
            "q5.0": {"ord_df": 0, "pole": False}, "q5.1": {"ord_df": -2, "pole": True},
            "q6.0": {"ord_df": 0, "pole": False}, "q6.1": {"ord_df": -2, "pole": True},
        },
    },
    "expected": {
        "genus": 8,
        "stable": False,  # v5 is rational on two nodes; the rows need no stability
        # rows over the fixed unknown order, as primitive integer vectors
        "level_minus_1_rows_1": [
            {"v2:q3.0": 1, "v2:q5.0": -1, "v3:q4.0": -1, "v3:q6.0": 1}],
        "level_minus_1_rows_2": [{"v2:q3.0": 1, "v2:q5.0": -1}],
        "level_0_row": {"v1:q1.0": 1, "v1:q2.0": -1},
    },
}

FIXTURES["cherry"] = {
    "graph": {
        "vertices": [{"id": "vt", "genus": 0}, {"id": "va", "genus": 1},
                     {"id": "vb", "genus": 2}],
        "edges": [{"id": "qa", "ends": ["vt", "va"]},
                  {"id": "qb", "ends": ["vt", "vb"]}],
        "legs": [{"id": "z1", "vertex": "vt", "mu": 1},
                 {"id": "z2", "vertex": "vt", "mu": 1},
                 {"id": "p1", "vertex": "vt", "mu": -1},
                 {"id": "p2", "vertex": "vt", "mu": -1}],
    },
    "levels_1": {"vt": 0, "va": -1, "vb": -2},
    "levels_2": {"vt": 0, "va": -2, "vb": -1},
    "decoration": {
        "orders": {
            "qa.0": {"ord_df": 1, "pole": False}, "qa.1": {"ord_df": -3, "pole": True},
            "qb.0": {"ord_df": 1, "pole": False}, "qb.1": {"ord_df": -3, "pole": True},
        },
    },
    "expected": {"genus": 3, "member": True, "tilted_pair_accepted": True,
                 "cover_accepted": True},
    "cover": {
        "source": {
            "vertices": [{"id": "vt", "genus": 0}, {"id": "va", "genus": 1},
                         {"id": "vb", "genus": 2}],
            "edges": [{"id": "qa", "ends": ["vt", "va"]},
                      {"id": "qb", "ends": ["vt", "vb"]}],
            "legs": (
                [{"id": "z1", "vertex": "vt", "mu": 1},
                 {"id": "z2", "vertex": "vt", "mu": 1},
                 {"id": "p1", "vertex": "vt", "mu": -1},
                 {"id": "p2", "vertex": "vt", "mu": -1}]
                + [{"id": f"ca{i}", "vertex": "va", "mu": 0} for i in (1, 2, 3)]
                + [{"id": f"cb{i}", "vertex": "vb", "mu": 0} for i in (1, 2, 3, 4, 5)]
            ),
        },
        "target": {
            "vertices": [{"id": "D1", "genus": 0}, {"id": "Da", "genus": 0},
                         {"id": "Db", "genus": 0}],
            "edges": [{"id": "ta", "ends": ["D1", "Da"]},
                      {"id": "tb", "ends": ["D1", "Db"]}],
            "legs": (
                [{"id": "t0", "vertex": "D1", "mu": 1},
                 {"id": "tinf", "vertex": "D1", "mu": -1}]
                + [{"id": f"ba{i}", "vertex": "Da", "mu": 0} for i in (1, 2, 3)]
                + [{"id": f"bb{i}", "vertex": "Db", "mu": 0} for i in (1, 2, 3, 4, 5)]
            ),
        },
        "map": {
            "vt": "D1", "va": "Da", "vb": "Db", "qa": "ta", "qb": "tb",
            "z1": "t0", "z2": "t0", "p1": "tinf", "p2": "tinf",
            "ca1": "ba1", "ca2": "ba2", "ca3": "ba3",
            "cb1": "bb1", "cb2": "bb2", "cb3": "bb3", "cb4": "bb4", "cb5": "bb5",
        },
        "mults": {
            "qa.0": 2, "qa.1": 2, "qb.0": 2, "qb.1": 2,
            "z1": 1, "z2": 1, "p1": 1, "p2": 1,
            "ca1": 2, "ca2": 2, "ca3": 2,
            "cb1": 2, "cb2": 2, "cb3": 2, "cb4": 2, "cb5": 2,
        },
        "degrees": {"vt": 2, "va": 2, "vb": 2},
    },
}

FIXTURES["hurwitz_exceptional_d4"] = {
    "hurwitz": {"degree": 4, "genus": 0, "profiles": [[2, 2], [2, 2], [3, 1]]},
    "expected": {"rh": True, "exists": False},
}

FIXTURES["hurwitz_elliptic_d3"] = {
    "hurwitz": {"degree": 3, "genus": 1,
                "profiles": [[3], [1, 1, 1], [2, 1], [2, 1], [2, 1], [2, 1]]},
    "expected": {"rh": True, "exists": True},
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_graph(name: str) -> MarkedDualGraph:
    return MarkedDualGraph.from_json(FIXTURES[name]["graph"])


def load_levels(name: str, key: str = "levels") -> LevelStructure:
    return LevelStructure.from_json(FIXTURES[name][key])


def load_decoration(name: str) -> TwrDecoration:
    return TwrDecoration.from_json(FIXTURES[name]["decoration"])


def load_cover(name: str) -> CombinatorialCover:
    return CombinatorialCover.from_json(FIXTURES[name]["cover"])
