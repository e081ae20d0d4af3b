import hashlib
import json

import pytest

from drloci import cli
from drloci.cli import main
from drloci.decorations import TwrDecoration, validate_twr
from drloci.fixtures import FIXTURES, load_decoration, load_graph, load_levels
from drloci.graphs import LevelStructure, MarkedDualGraph
from drloci.twisting import twist


@pytest.fixture
def dollar_files(tmp_path):
    doc = dict(FIXTURES["dollar_unmarked_zeros"]["graph"])
    doc["levels"] = FIXTURES["dollar_unmarked_zeros"]["levels"]
    gpath = tmp_path / "dollar.json"
    gpath.write_text(json.dumps(doc))
    dpath = tmp_path / "dec.json"
    dpath.write_text(json.dumps(FIXTURES["dollar_unmarked_zeros"]["decoration"]))
    return str(gpath), str(dpath)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate(capsys, dollar_files):
    gpath, _ = dollar_files
    code, doc = run(capsys, "validate", "--graph", gpath)
    assert code == 0
    assert doc["version"] == 1
    assert doc["genus"] == 2 and doc["ok"]


def test_levels_count(capsys, dollar_files):
    gpath, _ = dollar_files
    code, doc = run(capsys, "levels", "--graph", gpath)
    assert code == 0 and doc["count"] == 3


def test_ev_all(capsys, dollar_files):
    gpath, dpath = dollar_files
    code, doc = run(capsys, "ev", "--all", "--graph", gpath, "--decoration", dpath)
    assert code == 0
    assert doc["levels"]["-1"]["vanishes"] is True
    assert doc["levels"]["0"]["vanishes"] == "conditional"
    assert doc["levels"]["0"]["solution_dim"] == 1


def test_ev_single_level(capsys, dollar_files):
    gpath, dpath = dollar_files
    code, doc = run(capsys, "ev", "--level", "-1", "--graph", gpath,
                    "--decoration", dpath)
    assert code == 0 and list(doc["levels"]) == ["-1"]


def test_constraints_solution(capsys, dollar_files):
    gpath, dpath = dollar_files
    code, doc = run(capsys, "constraints", "--graph", gpath, "--decoration", dpath)
    assert code == 0
    assert doc["consistent"] and doc["solution_dim"] == 1


@pytest.fixture
def shared_unknown_decoration(tmp_path):
    doc = dict(FIXTURES["dollar_unmarked_zeros"]["decoration"])
    doc["values"] = {"v1:q1.0": "?x", "v1:q2.0": "?x"}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_ev_sites_sharing_a_named_unknown(capsys, dollar_files, shared_unknown_decoration):
    gpath, _ = dollar_files
    code, doc = run(capsys, "ev", "--graph", gpath, "--decoration", shared_unknown_decoration)
    # q1 and q2 carry one unknown x, so their difference vanishes
    assert code == 0
    assert doc["levels"]["0"]["constraints"] == ["v1:q3.0 - x"]
    assert doc["levels"]["0"]["solution_dim"] == 1


def test_constraints_sites_sharing_a_named_unknown(capsys, dollar_files,
                                                   shared_unknown_decoration):
    gpath, _ = dollar_files
    code, doc = run(capsys, "constraints", "--graph", gpath,
                    "--decoration", shared_unknown_decoration)
    assert code == 0 and doc["consistent"]
    assert doc["constraints"] == ["v1:q3.0 - x"]
    assert doc["basis"] == [{"v1:q3.0": "1", "x": "1"}]


def test_hurwitz_negative_verdict_exit_code(capsys):
    code, doc = run(capsys, "hurwitz", "--degree", "4", "--genus", "0",
                    "--profile", "2,2", "--profile", "2,2", "--profile", "3,1")
    assert code == 1
    assert doc["rh"] is True and doc["exists"] is False


def test_hurwitz_profile_count(capsys):
    code, doc = run(capsys, "hurwitz", "--degree", "3", "--genus", "1",
                    "--profile", "3", "--profile", "1,1,1",
                    "--profile", "2,1", "--count", "4")
    assert code == 0 and doc["exists"] is True
    assert len(doc["problem"]["profiles"]) == 6


@pytest.mark.parametrize("extra", [
    ["--profile", "2,x"],
    ["--profile", "2,1", "--count", "x"],
    ["--profile", "2,1", "--count", "0"],
    ["--count", "2"],
])
def test_hurwitz_malformed_profile_or_count_exit_2(capsys, extra):
    # exit 1 would read as a negative verdict
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--degree", "3", "--genus", "0", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["version"] == 1


@pytest.mark.parametrize("problem", [
    "--degree 0 --genus 0 --profile 1",
    "--degree -2 --genus 0 --profile 1",
    "--degree 3 --genus -1 --profile 3 --profile 3",
    "--degree 3 --genus 0 --profile 0,3 --profile 3",
    "--degree 3 --genus 0 --profile 4,-1 --profile 3",
])
def test_hurwitz_malformed_problem_exits_2(capsys, problem):
    # each once printed rh: false, exists: false and exited 1, a negative verdict
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", *problem.split()])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["version"] == 1


def test_hurwitz_profile_summing_to_another_degree_is_a_verdict(capsys):
    code, doc = run(capsys, "hurwitz", "--degree", "4", "--genus", "0",
                    "--profile", "2,1", "--profile", "2,2")
    assert code == 1 and doc["rh"] is False and doc["exists"] is False


def test_hurwitz_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "2")
    argv = ["hurwitz", "--degree", "3", "--genus", "0", "--profile", "3", "--profile", "3"]
    code, doc = run(capsys, *argv)
    assert code == 2 and doc["cap_hit"] is True and doc["exists"] is None
    code, doc = run(capsys, *argv, "--cap", "3")
    assert code == 0 and doc["cap_hit"] is False and doc["exists"] is True


@pytest.mark.parametrize("value", ["0", "-1"])
def test_hurwitz_cap_flag_must_be_positive(capsys, value):
    # --cap 0 once printed a cap_hit verdict on stdout
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--degree", "3", "--genus", "0", "--profile", "3", "--profile", "3",
              "--cap", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--cap" in json.loads(captured.err)["error"]


def test_hurwitz_env_cap_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "0")
    code = main(["hurwitz", "--degree", "3", "--genus", "0", "--profile", "3", "--profile", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "DRLOCI_HURWITZ_CAP" in json.loads(captured.err)["error"]


def test_check_closure_member(capsys, dollar_files):
    gpath, _ = dollar_files
    code, doc = run(capsys, "check-closure", "--graph", gpath)
    assert code == 0
    assert doc["member"] == "yes"
    assert len(doc["certificates"]) == 2
    assert all(v["verdict"].startswith("accepted") for v in doc["verification"])


def test_check_closure_negative(capsys, tmp_path):
    doc = {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
        "edges": [{"id": q, "ends": ["v1", "v2"]} for q in ("q1", "q2", "q3")],
        "legs": [{"id": "z1", "vertex": "v1", "mu": 1},
                 {"id": "z2", "vertex": "v2", "mu": 1},
                 {"id": "z3", "vertex": "v2", "mu": 1},
                 {"id": "p", "vertex": "v2", "mu": -3}],
    }
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "check-closure", "--graph", str(p))
    assert code == 1
    assert out["member"] == "no-within-bounds"


def test_check_closure_verifies_under_the_search_cap(capsys, dollar_files, monkeypatch):
    from drloci import closure
    caps = []
    real_exists = closure.exists

    def spy(problem, cap):
        caps.append(cap)
        return real_exists(problem, cap)

    monkeypatch.setattr(closure, "exists", spy)
    gpath, _ = dollar_files
    code, doc = run(capsys, "check-closure", "--graph", gpath, "--bounds", "hurwitz_cap=4")
    assert code == 0 and doc["verification"]
    # the search and every verification decide components under cap 4
    assert caps and set(caps) == {4}


def test_twist_stabilize_round_trip_via_cli(capsys, dollar_files, tmp_path):
    gpath, dpath = dollar_files
    code, twisted = run(capsys, "twist", "--graph", gpath, "--decoration", dpath)
    assert code == 0
    g2 = dict(twisted["graph"])
    g2["levels"] = twisted["levels"]
    (tmp_path / "tw_graph.json").write_text(json.dumps(g2))
    (tmp_path / "tw_dec.json").write_text(json.dumps(twisted["decoration"]))
    code, stab = run(capsys, "stabilize",
                     "--graph", str(tmp_path / "tw_graph.json"),
                     "--decoration", str(tmp_path / "tw_dec.json"))
    assert code == 0
    assert stab["graph"] == FIXTURES["dollar_unmarked_zeros"]["graph"]
    assert stab["levels"] == FIXTURES["dollar_unmarked_zeros"]["levels"]


def test_stabilize_rejects_a_decoration_that_is_not_fully_marked(capsys, dollar_files):
    # the inequality-form decoration lacks the extra critical legs; the one
    # check, in ``twisting.stabilize``, reports it
    gpath, dpath = dollar_files
    code = main(["stabilize", "--graph", gpath, "--decoration", dpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not a valid fully-marked decoration" in json.loads(captured.err)["error"]


def test_cover_subcommand(capsys, tmp_path):
    cpath = tmp_path / "cover.json"
    cpath.write_text(json.dumps(FIXTURES["cherry"]["cover"]))
    gpath = tmp_path / "cherry.json"
    gpath.write_text(json.dumps(FIXTURES["cherry"]["graph"]))
    code, doc = run(capsys, "cover", "--cover", str(cpath), "--graph", str(gpath))
    assert code == 0
    assert doc["validation"]["ok"] and doc["closure"]["accepted"]


def test_cover_refuses_a_graph_that_validate_refuses(capsys, tmp_path):
    cpath = tmp_path / "cover.json"
    cpath.write_text(json.dumps(FIXTURES["cherry"]["cover"]))
    doc = json.loads(json.dumps(FIXTURES["cherry"]["graph"]))
    doc["legs"][0]["id"] = "qa.0"  # the id of a half-edge of the graph
    gpath = tmp_path / "cherry.json"
    gpath.write_text(json.dumps(doc))
    code = main(["cover", "--cover", str(cpath), "--graph", str(gpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "leg-id-is-half-edge-id" in json.loads(captured.err)["error"]


def test_fixtures_check(capsys):
    code, doc = run(capsys, "fixtures", "--check")
    assert code == 0
    assert all(r["ok"] for r in doc["check"].values())


def test_malformed_input_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = main(["validate", "--graph", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)


def test_byte_identical_output(capsys, dollar_files):
    gpath, dpath = dollar_files
    main(["ev", "--all", "--graph", gpath, "--decoration", dpath])
    first = capsys.readouterr().out
    main(["ev", "--all", "--graph", gpath, "--decoration", dpath])
    second = capsys.readouterr().out
    assert first == second


def test_check_closure_on_stable_4_cycle_is_a_verdict(capsys, tmp_path):
    # colour refinement runs 0 or 1 rounds on its level structures, whose
    # keys once failed to sort: exit 1 with a traceback
    doc = {
        "vertices": [{"id": v, "genus": 0} for v in "abcd"],
        "edges": [{"id": f"e{i}", "ends": [a, b]}
                  for i, (a, b) in enumerate(["ab", "bc", "cd", "da"])],
        "legs": [{"id": l, "vertex": v, "mu": m}
                 for l, v, m in [("z", "a", 1), ("p", "b", -1), ("x", "c", 0), ("y", "d", 0)]],
    }
    p = tmp_path / "cycle4.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "check-closure", "--graph", str(p))
    assert code in (0, 1)
    assert out["member"] == ("yes" if code == 0 else "no-within-bounds")


def test_check_closure_bounds_cap_overrides_env(capsys, dollar_files, monkeypatch):
    gpath, _ = dollar_files
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "6")
    code, doc = run(capsys, "check-closure", "--graph", gpath, "--bounds", "hurwitz_cap=2")
    comps = [c for cert in doc["certificates"] for c in cert["components"].values()]
    assert comps and all(c["cap_hit"] is True for c in comps)


@pytest.mark.parametrize("argv", [
    ["hurwitz", "--genus", "0", "--profile", "2,1"],
    ["no-such-command"],
    [],
], ids=["missing_degree", "unknown_command", "no_command"])
def test_usage_errors_are_json(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["version"] == 1 and doc["error"].startswith("drloci")


def test_levels_on_dangling_edge_exits_2(capsys, tmp_path):
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps({"vertices": [{"id": "a", "genus": 0}],
                             "edges": [{"id": "e", "ends": ["a", "b"]}], "legs": []}))
    code = main(["levels", "--graph", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "dangling-half-edge" in json.loads(captured.err)["error"]


def _with_a_refused_id(graph: dict, dec: dict, breakage: str) -> tuple[dict, dict]:
    """A graph document (levels inline) and its decoration, with the leg z1
    named like a half-edge of the graph, or every vertex id prefixed "x:"."""
    if breakage == "leg-id-is-half-edge-id":
        hid = f"{graph['edges'][0]['id']}.0"
        return {**graph, "legs": [{**l, "id": hid if l["id"] == "z1" else l["id"]}
                                  for l in graph["legs"]]}, dec

    def x(v):
        return f"x:{v}"
    graph = {"vertices": [{**v, "id": x(v["id"])} for v in graph["vertices"]],
             "edges": [{**e, "ends": [x(w) for w in e["ends"]]} for e in graph["edges"]],
             "legs": [{**l, "vertex": x(l["vertex"])} for l in graph["legs"]],
             "levels": {x(v): lv for v, lv in graph["levels"].items()}}
    dec = {**dec, "values": {x(k): val for k, val in dec.get("values", {}).items()},
           "extra_legs": [{**e, "vertex": x(e["vertex"])} for e in dec.get("extra_legs", [])]}
    return graph, dec


@pytest.mark.parametrize("breakage", ["leg-id-is-half-edge-id", "colon-in-vertex-id"])
@pytest.mark.parametrize("argv", [["ev", "--all"], ["constraints"], ["twist"], ["stabilize"]],
                         ids=["ev", "constraints", "twist", "stabilize"])
def test_graph_that_validate_refuses_exits_2(capsys, tmp_path, argv, breakage):
    # as for levels and check-closure; stability is left to the decoration
    # checks, since a twisted graph carries unstable bridges
    name = "dollar_unmarked_zeros"
    if argv == ["stabilize"]:
        tw = twist(load_graph(name), load_levels(name), load_decoration(name)).to_json()
        graph, dec = {**tw["graph"], "levels": tw["levels"]}, tw["decoration"]
    else:
        graph = {**FIXTURES[name]["graph"], "levels": FIXTURES[name]["levels"]}
        dec = FIXTURES[name]["decoration"]
    gpath, dpath = tmp_path / "graph.json", tmp_path / "dec.json"
    for broken in (False, True):
        if broken:
            graph, dec = _with_a_refused_id(graph, dec, breakage)
        gpath.write_text(json.dumps(graph))
        dpath.write_text(json.dumps(dec))
        code = main([*argv, "--graph", str(gpath), "--decoration", str(dpath)])
        captured = capsys.readouterr()
        assert code == (2 if broken else 0)
    assert captured.out == ""
    assert breakage in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv", [["ev", "--all"], ["constraints"], ["twist"], ["stabilize"]],
                         ids=["ev", "constraints", "twist", "stabilize"])
@pytest.mark.parametrize("breakage", ["missing_pole", "string_orders", "bad_order"])
def test_malformed_decoration_exits_2(capsys, dollar_files, tmp_path, argv, breakage):
    gpath, _ = dollar_files
    doc = json.loads(json.dumps(FIXTURES["dollar_unmarked_zeros"]["decoration"]))
    first = next(iter(doc["orders"]))
    if breakage == "missing_pole":
        del doc["orders"][first]["pole"]
    elif breakage == "string_orders":
        doc["orders"] = "q1.0"
    else:
        doc["orders"][first]["ord_df"] = "two"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code = main([*argv, "--graph", gpath, "--decoration", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith(f"malformed decoration document {p}")


def _unknown_vertex_value(doc):
    doc["values"] = {"v9:q1.0": "1"}


def _unknown_half_edge_order(doc):
    doc["orders"]["q9.0"] = {"ord_df": 0, "pole": False}


def _missing_order(doc):
    del doc["orders"]["q1.0"]


def _pole_on_an_evaluated_site(doc):
    doc["orders"]["q1.0"] = {"ord_df": -2, "pole": True}


def _marked_zero_vertex_not_a_vertex(doc):
    doc["marked_zero_vertices"] = ["v9"]


def _marked_zero_vertices_a_string(doc):
    doc["marked_zero_vertices"] = "v1"


MISFITS = [
    (_unknown_vertex_value, "half-edge not at this vertex"),
    (_unknown_half_edge_order, "order given for unknown half-edge"),
    (_missing_order, "missing half-edge order"),
    (_pole_on_an_evaluated_site, "pole at level 0 not strictly below v2"),
    (_marked_zero_vertex_not_a_vertex, "marked zero vertex is not a vertex"),
    (_marked_zero_vertices_a_string, "marked_zero_vertices must be a list of vertex ids"),
]


@pytest.mark.parametrize("argv", [["ev", "--all"], ["constraints"], ["twist"]],
                         ids=["ev", "constraints", "twist"])
@pytest.mark.parametrize("edit, detail", MISFITS, ids=[f.__name__[1:] for f, _ in MISFITS])
def test_decoration_that_does_not_fit_the_graph_exits_2(capsys, dollar_files, tmp_path,
                                                        argv, edit, detail):
    # ev and constraints once evaluated all but the last two (a pole flag
    # on an evaluated site as "internal error: MissingValue"), and twist
    # read "v1" as the vertices "1" and "v"
    gpath, _ = dollar_files
    doc = json.loads(json.dumps(FIXTURES["dollar_unmarked_zeros"]["decoration"]))
    edit(doc)
    p = tmp_path / "misfit.json"
    p.write_text(json.dumps(doc))
    code = main([*argv, "--graph", gpath, "--decoration", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert detail in json.loads(captured.err)["error"]


def test_twist_reports_an_impossible_order_opposite_a_pole(capsys, dollar_files, tmp_path):
    gpath, _ = dollar_files
    doc = json.loads(json.dumps(FIXTURES["dollar_unmarked_zeros"]["decoration"]))
    doc["orders"]["q1.0"] = {"ord_df": -1, "pole": False}
    p = tmp_path / "minus_one.json"
    p.write_text(json.dumps(doc))
    code = main(["twist", "--graph", gpath, "--decoration", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("input is not a valid twistable decoration")
    assert "ord(df) = -1 is impossible" in error


def test_ev_accepts_levels_that_are_not_normalized(capsys, dollar_files):
    gpath, dpath = dollar_files
    code, doc = run(capsys, "ev", "--all", "--graph", gpath, "--decoration", dpath,
                    "--levels", '{"v1": 3, "v2": 1}')
    assert code == 0 and sorted(doc["levels"]) == ["1", "3"]


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_levels_max_levels_must_be_positive(capsys, dollar_files, value):
    # 0 once printed count 0 and -1 every structure, both with exit 0
    gpath, _ = dollar_files
    with pytest.raises(SystemExit) as exc:
        main(["levels", "--graph", gpath, "--max-levels", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-levels" in json.loads(captured.err)["error"]


def test_levels_max_levels_bounds_depth(capsys, dollar_files):
    gpath, _ = dollar_files
    code, doc = run(capsys, "levels", "--graph", gpath, "--max-levels", "1")
    assert code == 0 and doc["count"] == 1


# sha256 of the `levels` output of each bundled graph, without and with --max-levels 2
LEVELS_SHA256 = {
    "cherry": ("91fd8daf0483e0073c23d882fb47a50d0df32bc3d539a9488bae02dca00a382c",
               "76ebd8c9d1c6cd20ff6eb5561f09bbde8522224c9887ceedc28acb72858a46da"),
    "dollar_cover": ("d9585fd10bf44e58904a0a5855e8e4c428d4427d7cc6780bcd76336c7c6d9016",) * 2,
    "dollar_matching": ("d9585fd10bf44e58904a0a5855e8e4c428d4427d7cc6780bcd76336c7c6d9016",) * 2,
    "dollar_unmarked_zeros": ("d9585fd10bf44e58904a0a5855e8e4c428d4427d7cc6780bcd76336c7c6d9016",) * 2,
    "horizontal_nodes": ("dfe6104e76e5296dcaddacb4622205101c4a68076426d1b9caef08aee6b76593",
                         "08642dca7542a652ef83f6f112549a75a19e52165ef262fb92f9383c6aca5663"),
    "level_dependence": ("acc2477a3ba798ce5413654fea3dee0add290fe61163be2a9eda9e6f21014874",
                         "37dfada9d9505f43ea74609703d6d0800c0935c861b5690406014bc55092b87e"),
    "partial_order": ("dfe6104e76e5296dcaddacb4622205101c4a68076426d1b9caef08aee6b76593",
                      "08642dca7542a652ef83f6f112549a75a19e52165ef262fb92f9383c6aca5663"),
    "theta": ("27127425265422add3b85ed7dbab73016a0c6e6b395ddcebcb6bc74944cd8cf1",) * 2,
}


def test_levels_bytes_are_pinned(capsys, tmp_path):
    assert sorted(LEVELS_SHA256) == sorted(name for name, fx in FIXTURES.items() if "graph" in fx)
    for name, pins in LEVELS_SHA256.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FIXTURES[name]["graph"]))
        for extra, pin in zip(([], ["--max-levels", "2"]), pins):
            assert main(["levels", "--graph", str(path), *extra]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin, name


def test_level_cap_counts_the_structures_the_search_walks(capsys, tmp_path):
    # the genus-1 6-path with mu (2, -2) has 4 683 level structures, of which
    # the 25 where every vertex can carry a pole are walked; `levels` lists all
    doc = {"vertices": [{"id": f"v{i}", "genus": 1} for i in range(6)],
           "edges": [{"id": f"e{i}", "ends": [f"v{i}", f"v{i + 1}"]} for i in range(5)],
           "legs": [{"id": "z", "vertex": "v0", "mu": 2}, {"id": "p", "vertex": "v3", "mu": -2}]}
    path = tmp_path / "path6.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check-closure", "--graph", str(path), "--bounds", "level_cap=100")
    assert code == 0 and out["member"] == "yes"
    code, out = run(capsys, "levels", "--graph", str(path))
    assert code == 0 and out["count"] == 4683


@pytest.mark.parametrize("bound", ["max_degree=0", "max_degree=-1", "hurwitz_cap=0",
                                   "hurwitz_cap=-1", "level_cap=0", "max_degree=two"])
def test_check_closure_bounds_must_be_positive(capsys, dollar_files, bound):
    # max_degree=0 once fell back to the default degree, max_degree=-1 read
    # as a negative verdict (exit 1), hurwitz_cap=-1 as membership (exit 0)
    gpath, _ = dollar_files
    code = main(["check-closure", "--graph", gpath, "--bounds", bound])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["version"] == 1


def test_check_closure_env_cap_must_be_positive(capsys, dollar_files, monkeypatch):
    gpath, _ = dollar_files
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "0")
    code = main(["check-closure", "--graph", gpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "hurwitz_cap" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("text", ["[]", "3", '"graph"', "null"])
@pytest.mark.parametrize("argv", [["validate"], ["levels"], ["check-closure"]])
def test_graph_file_that_is_not_an_object_exits_2(capsys, tmp_path, text, argv):
    # a top-level list once crashed with AttributeError and exit 1
    p = tmp_path / "g.json"
    p.write_text(text)
    code = main([*argv, "--graph", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "expected a JSON object" in json.loads(captured.err)["error"]


def test_graph_with_non_object_levels_exits_2(capsys, dollar_files, tmp_path):
    gpath, dpath = dollar_files
    doc = json.loads(open(gpath).read())
    doc["levels"] = []
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    code = main(["ev", "--all", "--graph", str(p), "--decoration", dpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith(f"malformed graph document {p}")


@pytest.mark.parametrize("cover", [[], {"source": []}, {"source": {}, "target": 1}])
def test_malformed_cover_exits_2(capsys, tmp_path, cover):
    p = tmp_path / "cover.json"
    p.write_text(json.dumps(cover))
    code = main(["cover", "--cover", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error" in json.loads(captured.err)


def bad_field_documents(field: str):
    """A command and its documents in which one value of ``field`` has the
    wrong JSON type.  Each was once read as a truncated integer or, for
    ``pole``, as a truthy string; genus 1.9 and mu 2.5 passed ``validate``
    as genus 1 and mu 2.  A node value ``true`` was read as 1, and ``"1/0"``
    exited as an internal ZeroDivisionError."""
    dollar = json.loads(json.dumps(FIXTURES["dollar_unmarked_zeros"]))
    graph, dec = {**dollar["graph"], "levels": dollar["levels"]}, dollar["decoration"]
    cover = json.loads(json.dumps(FIXTURES["cherry"]["cover"]))
    ev = ["ev", "--all"], {"--graph": graph, "--decoration": dec}
    if field == "genus":
        graph["vertices"][0]["genus"] = 1.9
        return ["validate"], {"--graph": graph}
    if field == "mu":
        graph["legs"][1]["mu"] = 2.5
        return ["validate"], {"--graph": graph}
    if field == "level":
        graph["levels"]["v2"] = -1.5
        return ev
    if field == "ord_df":
        dec["orders"]["q1.0"]["ord_df"] = 0.5
        return ev
    if field == "pole":
        dec["orders"]["q1.0"]["pole"] = "false"
        return ev
    if field in ("value_true", "value_1_over_0"):
        dec["values"] = {"v1:q1.0": True if field == "value_true" else "1/0"}
        return ["constraints"], {"--graph": graph, "--decoration": dec}
    if field == "extra_legs":
        twisted = twist(load_graph("dollar_unmarked_zeros"), load_levels("dollar_unmarked_zeros"),
                        load_decoration("dollar_unmarked_zeros")).to_json()
        twisted["decoration"]["extra_legs"][0]["ord_df"] = 1.0
        return ["stabilize"], {"--graph": {**twisted["graph"], "levels": twisted["levels"]},
                               "--decoration": twisted["decoration"]}
    if field == "mults":
        cover["mults"]["qa.0"] = 2.0
    else:
        cover["degrees"]["vt"] = True
    return ["cover"], {"--cover": cover}


@pytest.mark.parametrize("field, what", [
    ("genus", "genus of v1"), ("mu", "mu of z1"), ("level", "level of v2"),
    ("ord_df", "ord_df of q1.0"), ("pole", "pole of q1.0"), ("extra_legs", "ord_df of c:v1:0"),
    ("mults", "mult of qa.0"), ("degrees", "degree of vt"),
    ("value_true", "value of v1:q1.0"), ("value_1_over_0", "value of v1:q1.0")])
def test_json_value_of_the_wrong_type_exits_2(capsys, tmp_path, field, what):
    argv, docs = bad_field_documents(field)
    for flag, doc in docs.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert what in json.loads(captured.err)["error"]


@pytest.mark.parametrize("command", [["ev", "--all"], ["constraints"], ["twist"]],
                         ids=["ev", "constraints", "twist"])
@pytest.mark.parametrize("levels, inline", [
    ([1], False), ({"v1": 0}, False), ({"v1": 0}, True),
    ({"v1": 0, "v2": -1, "v9": -2}, False), ({"v1": 0, "v2": -1, "v9": -2}, True)],
    ids=["list", "missing_vertex", "missing_vertex_inline", "extra_vertex",
         "extra_vertex_inline"])
def test_level_map_not_keyed_by_the_vertices_exits_2(capsys, dollar_files, tmp_path,
                                                      command, levels, inline):
    # once an internal AttributeError or KeyError, or, with an extra vertex, accepted
    gpath, dpath = dollar_files
    if inline:
        gpath = tmp_path / "inline.json"
        gpath.write_text(json.dumps({**FIXTURES["dollar_unmarked_zeros"]["graph"],
                                     "levels": levels}))
        argv = [*command, "--graph", str(gpath), "--decoration", dpath]
    else:
        argv = [*command, "--graph", gpath, "--decoration", dpath, "--levels", json.dumps(levels)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"].startswith("malformed levels")


def test_unexpected_exception_is_a_json_internal_error(capsys, dollar_files, monkeypatch):
    from drloci import cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "validate", broken)
    gpath, _ = dollar_files
    code = main(["validate", "--graph", gpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "internal error: ZeroDivisionError: boom"


def test_hurwitz_env_cap_not_an_integer_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "abc")
    code = main(["hurwitz", "--degree", "3", "--genus", "0", "--profile", "3", "--profile", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "DRLOCI_HURWITZ_CAP" in error and "'abc'" in error


def test_check_closure_env_cap_not_an_integer_names_the_variable(capsys, dollar_files,
                                                                 monkeypatch):
    # the error once read "bound hurwitz_cap must be ...", without the variable
    gpath, _ = dollar_files
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "abc")
    code = main(["check-closure", "--graph", gpath])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "DRLOCI_HURWITZ_CAP" in error and "hurwitz_cap" in error and "'abc'" in error


@pytest.mark.parametrize("bound", ["hurwitz_cap=x", "max_degree=1.5", "level_cap="])
def test_check_closure_bound_not_an_integer_names_the_bound(capsys, dollar_files, bound):
    key, _, value = bound.partition("=")
    gpath, _ = dollar_files
    code = main(["check-closure", "--graph", gpath, "--bounds", bound])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert key in error and repr(value) in error


UNSTABLE_MIDDLE = {
    "vertices": [{"id": "a", "genus": 1}, {"id": "m", "genus": 0}, {"id": "b", "genus": 1}],
    "edges": [{"id": "e1", "ends": ["a", "m"]}, {"id": "e2", "ends": ["m", "b"]}],
    "legs": [{"id": "z", "vertex": "a", "mu": 1}, {"id": "p", "vertex": "a", "mu": -1}],
    "levels": {"a": 0, "m": -1, "b": -2},
}
UNSTABLE_MIDDLE_DECORATION = {"orders": {
    "e1.0": {"ord_df": 0, "pole": False}, "e1.1": {"ord_df": -2, "pole": True},
    "e2.0": {"ord_df": 0, "pole": False}, "e2.1": {"ord_df": -2, "pole": True}}}


@pytest.mark.parametrize("argv", [["ev", "--all"], ["constraints"], ["twist"]],
                         ids=["ev", "constraints", "twist"])
def test_decoration_on_an_unstable_vertex_exits_2(capsys, tmp_path, argv):
    # m is a legless rational bridge; twist once returned it uncontracted,
    # and stabilizing the twist then contracted it into ctr:e1
    graph = MarkedDualGraph.from_json(UNSTABLE_MIDDLE)
    dec = TwrDecoration.from_json(UNSTABLE_MIDDLE_DECORATION)
    report = validate_twr(graph, LevelStructure.from_json(UNSTABLE_MIDDLE["levels"]), dec)
    assert report.violations == [
        ("structure", "m", "unstable vertex: 2g - 2 + special points <= 0")]
    gpath, dpath = tmp_path / "graph.json", tmp_path / "dec.json"
    gpath.write_text(json.dumps(UNSTABLE_MIDDLE))
    dpath.write_text(json.dumps(UNSTABLE_MIDDLE_DECORATION))
    code = main([*argv, "--graph", str(gpath), "--decoration", str(dpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unstable vertex" in json.loads(captured.err)["error"]


# sha256 of the stdout of `ev --all` and `constraints` on every fixture
# decoration under each of its fixture level maps, as the parent of the
# change that made `homology.evaluate` substitute values into site-named
# rows printed them
EV_PINS = {
    ("cherry", "levels_1"): ("38211745e109c8e928cce29195c352378750dc655d3d907ff0c75f740d6f6c89",
                             "73d37bdf5669df3e51550e0ea7de0ffbcd01dd32c83a6c9af783e4df395e28f9"),
    ("cherry", "levels_2"): ("38211745e109c8e928cce29195c352378750dc655d3d907ff0c75f740d6f6c89",
                             "73d37bdf5669df3e51550e0ea7de0ffbcd01dd32c83a6c9af783e4df395e28f9"),
    ("dollar_unmarked_zeros", "levels"): (
        "b3354029a62ea309e964a480c20a6e784157e7401dd220a7315e9238b252f7f2",
        "f607fc85ee29476445357672921f1b02cab00a5a0317adaa214e7d04c0cfeedb"),
    ("horizontal_nodes", "levels"): (
        "d6e16e4ea4ae338e62122ab8d1c5ed99303507d6d6e924e5ed04afc2d65a4985",
        "90e9953a6ddc4e9a866a2de38304946c3872f2cfaeda2767a83d4094ba6b80ef"),
    ("level_dependence", "levels_1"): (
        "f905bf1376fc3592d5eb8dd3af41762b2522a390c456b4ed856671bf38625d6e",
        "19acfdedb7ce5552c5d221e851f9a8242b0f2c2cb2106de04e2f19c0be6d786c"),
    ("level_dependence", "levels_2"): (
        "227597f036a4afd83259879254ca2c6b21e0eecdc2ed13091c85a35cbaa940eb",
        "5d24cd162654fc46e66a7ed47f82b680df2c0349cf7eb9007cfd327d43579a71"),
    ("partial_order", "levels_1"): (
        "8eb44e253c89ef0042ca2ed7db79184abd309e7215586475fd276e68cb141222",
        "450bfebd51a3fd6894a3c00e53c301277dee3d24d331b7450491043e137a52e0"),
    ("partial_order", "levels_2"): (
        "d18349e5dddee57f400bd62bd96a2c0157b583b660e3c7c59aa9c652fe30af8f",
        "450bfebd51a3fd6894a3c00e53c301277dee3d24d331b7450491043e137a52e0"),
}


def test_ev_pins_cover_every_fixture_decoration():
    assert set(EV_PINS) == {(name, key) for name, fx in FIXTURES.items() if "decoration" in fx
                            for key in fx if key.startswith("levels")}


@pytest.mark.parametrize("name, key", sorted(EV_PINS), ids=[f"{n}-{k}" for n, k in sorted(EV_PINS)])
def test_ev_and_constraints_bytes_are_pinned(capsys, monkeypatch, tmp_path, name, key):
    fx = FIXTURES[name]
    gpath, dpath = tmp_path / "graph.json", tmp_path / "dec.json"
    gpath.write_text(json.dumps(fx["graph"]))
    dpath.write_text(json.dumps(fx["decoration"]))
    files = ["--graph", str(gpath), "--decoration", str(dpath), "--levels", json.dumps(fx[key])]
    if name == "level_dependence":
        # its vertex v5 (genus 0, two nodes) is unstable, which ev and
        # constraints reject; the pins hold for its rows all the same
        assert main(["ev", "--all", *files]) == 2
        assert "unstable vertex" in json.loads(capsys.readouterr().err)["error"]
        validate = cli.validate_twr

        def stable_clauses_only(*args):
            report = validate(*args)
            report.violations = [v for v in report.violations
                                 if not v[2].startswith("unstable vertex")]
            return report

        monkeypatch.setattr(cli, "validate_twr", stable_clauses_only)
    for argv, want in zip((["ev", "--all"], ["constraints"]), EV_PINS[name, key]):
        assert main([*argv, *files]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
