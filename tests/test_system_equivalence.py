"""``drloci ev --all`` and ``drloci constraints`` against the evaluation
system as classes in ``plain_homology``: the same ``levels`` blocks and
the same constraints payload on every fixture decoration at every fixture
level map, and on random decorated level graphs carrying exact values and
shared "?name" unknowns at some of their regular node sites."""

import json
import random
from fractions import Fraction

import pytest

from drloci import cli
from drloci.decorations import TwrDecoration
from drloci.exact import format_rational
from drloci.fixtures import FIXTURES, load_decoration, load_graph, load_levels
from plain_homology import evaluation_system
from randgen import random_twr


def constraints_payload(system) -> dict:
    """The ``constraints`` document of the class-shaped system."""
    space = system.solution_space()
    payload = {"command": "constraints", "consistent": space is not None,
               "constraints": [r.render() for r in system.all_rows() if not r.is_zero]}
    if space is not None:
        payload["solution_dim"] = space.dim
        payload["particular"] = {k: format_rational(v)
                                 for k, v in sorted(space.particular.items())}
        payload["basis"] = [{k: format_rational(v) for k, v in sorted(b.items())}
                            for b in space.basis]
    return payload


def assert_same_documents(capsys, tmp_path, graph, levels, dec):
    gpath, dpath = tmp_path / "graph.json", tmp_path / "dec.json"
    gpath.write_text(json.dumps(graph.to_json()))
    dpath.write_text(json.dumps(dec.to_json()))
    files = ["--graph", str(gpath), "--decoration", str(dpath),
             "--levels", json.dumps(levels.to_json())]
    system = evaluation_system(graph, levels, dec)
    code = cli.main(["ev", "--all", *files])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["levels"] == system.to_json()
    want = constraints_payload(system)
    code = cli.main(["constraints", *files])
    assert code == (0 if want["consistent"] else 1)
    got = json.loads(capsys.readouterr().out)
    assert got == {"version": 1, **want}
    return want


def test_same_documents_on_fixture_decorations(capsys, monkeypatch, tmp_path):
    validate = cli.validate_twr

    def stable_clauses_only(*args):
        # level_dependence's vertex v5 is unstable, which ev and constraints
        # reject; its rows are compared all the same
        report = validate(*args)
        report.violations = [v for v in report.violations
                             if not v[2].startswith("unstable vertex")]
        return report

    monkeypatch.setattr(cli, "validate_twr", stable_clauses_only)
    compared = 0
    for name, fx in sorted(FIXTURES.items()):
        for key in sorted(k for k in fx if k.startswith("levels") and "decoration" in fx):
            assert_same_documents(capsys, tmp_path, load_graph(name), load_levels(name, key),
                                  load_decoration(name))
            compared += 1
    assert compared == 8


def with_values(rng, graph, dec):
    """``dec`` with nonzero rationals and "?name" unknowns, a few names
    each shared by several sites, at some regular node sites without a value."""
    values = dict(dec.values)
    for e, ends in graph.edges:
        for side, v in enumerate(ends):
            hid = f"{e}.{side}"
            site = f"{v}:{hid}"
            if dec.is_pole(hid) or site in values:
                continue
            roll = rng.random()
            if roll < 0.3:
                values[site] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
            elif roll < 0.6:
                values[site] = f"?{rng.choice('xy')}"
    return TwrDecoration.build(dec.order_of, values, dec.marked_zero_vertices)


def test_same_documents_on_random_decorations(capsys, tmp_path):
    rng = random.Random(27)
    kinds = {"rational": 0, "unknown": 0, "shared": 0, "inconsistent": 0}
    for _ in range(200):
        graph, levels, dec = random_twr(rng, max_vertices=5)
        dec = with_values(rng, graph, dec)
        want = assert_same_documents(capsys, tmp_path, graph, levels, dec)
        names = [v for _, v in dec.values if isinstance(v, str)]
        kinds["rational"] += any(not isinstance(v, str) and v != 0 for _, v in dec.values)
        kinds["unknown"] += bool(names)
        kinds["shared"] += len(set(names)) < len(names)
        kinds["inconsistent"] += not want["consistent"]
    assert min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize("level", [0, -1, -5])
def test_single_level_is_its_block(capsys, tmp_path, level):
    graph, levels = load_graph("dollar_unmarked_zeros"), load_levels("dollar_unmarked_zeros")
    dec = load_decoration("dollar_unmarked_zeros")
    gpath, dpath = tmp_path / "graph.json", tmp_path / "dec.json"
    gpath.write_text(json.dumps(graph.to_json()))
    dpath.write_text(json.dumps(dec.to_json()))
    code = cli.main(["ev", "--level", str(level), "--graph", str(gpath), "--decoration",
                     str(dpath), "--levels", json.dumps(levels.to_json())])
    blocks = evaluation_system(graph, levels, dec).to_json()
    if str(level) in blocks:
        assert code == 0
        assert json.loads(capsys.readouterr().out)["levels"] == {str(level): blocks[str(level)]}
    else:
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == f"level {level} not attained"
