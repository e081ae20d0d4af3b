import json

import pytest

from drloci.cli import main
from drloci.fixtures import FIXTURES


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


def test_hurwitz_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("DRLOCI_HURWITZ_CAP", "2")
    argv = ["hurwitz", "--degree", "3", "--genus", "0", "--profile", "3", "--profile", "3"]
    code, doc = run(capsys, *argv)
    assert code == 2 and doc["cap_hit"] is True and doc["exists"] is None
    code, doc = run(capsys, *argv, "--cap", "3")
    assert code == 0 and doc["cap_hit"] is False and doc["exists"] is True


def test_check_closure_member(capsys, dollar_files):
    gpath, _ = dollar_files
    code, doc = run(capsys, "check-closure", "--graph", gpath, "--mu", "1,1,1,-3")
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
    code, doc = run(capsys, "check-closure", "--graph", gpath, "--hurwitz-cap", "4")
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


def test_cover_subcommand(capsys, tmp_path):
    cpath = tmp_path / "cover.json"
    cpath.write_text(json.dumps(FIXTURES["cherry"]["cover"]))
    gpath = tmp_path / "cherry.json"
    gpath.write_text(json.dumps(FIXTURES["cherry"]["graph"]))
    code, doc = run(capsys, "cover", "--cover", str(cpath), "--graph", str(gpath))
    assert code == 0
    assert doc["validation"]["ok"] and doc["closure"]["accepted"]


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
    code, doc = run(capsys, "check-closure", "--graph", gpath, "--bounds", "hurwitz_cap=2",
                    "--hurwitz-cap", "6")
    comps = [c for cert in doc["certificates"] for c in cert["components"].values()]
    assert comps and all(c["cap_hit"] is False for c in comps)


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
