"""Inputs, operations and output checks of the three workloads.

An operation's ``run`` is the timed work: it calls the program and
returns the JSON text a user would get.  ``check`` runs afterwards,
untimed, and returns the reasons the output is wrong (empty when right).

Every input is built from the seed.  The work an operation does must not
depend on the seed, or two sets of runs on different seeds could not be
compared: the seed renames the vertices, edges and legs of the fixed
graphs (keeping their order), orders the branch profiles, and draws the
small random inputs, which are kept cheaper than the median operation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from drloci import closure, covers, fixtures, graphs, hurwitz, witnesses

import reference

CORPUS = json.loads(Path(__file__).with_name("corpus.json").read_text())

# bundled examples, with the expectations fixtures.py records for them
BUNDLED = ["dollar_unmarked_zeros", "dollar_cover", "dollar_matching",
           "horizontal_nodes", "partial_order", "cherry"]

# graphs small enough to search twice: the relabelling check re-runs them
RELABEL_CHECKED = {"dollar_matching", "horizontal_nodes", "cherry"}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same graph under fresh vertex, edge and leg names, in the same order."""
    def names(prefix, items):
        return {x["id"]: f"{prefix}{n}" for x, n in
                zip(items, rng.sample(range(100, 1000), len(items)))}
    vn = names("v", doc["vertices"])
    en = names("e", doc["edges"])
    ln = names("l", doc["legs"])
    return {
        "vertices": [{"id": vn[v["id"]], "genus": v["genus"]} for v in doc["vertices"]],
        "edges": [{"id": en[e["id"]], "ends": [vn[x] for x in e["ends"]]} for e in doc["edges"]],
        "legs": [{"id": ln[l["id"]], "vertex": vn[l["vertex"]], "mu": l["mu"]}
                 for l in doc["legs"]],
    }


def _stable_connected(doc: dict) -> bool:
    """Connected and stable, checked here so that the inputs do not depend on
    the program under test."""
    vs = [v["id"] for v in doc["vertices"]]
    valence = {v: 0 for v in vs}
    adj: dict[str, set] = {v: set() for v in vs}
    for e in doc["edges"]:
        a, b = e["ends"]
        valence[a] += 1
        valence[b] += 1
        adj[a].add(b)
        adj[b].add(a)
    for l in doc["legs"]:
        valence[l["vertex"]] += 1
    seen, todo = {vs[0]}, [vs[0]]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(vs) and all(
        2 * v["genus"] - 2 + valence[v["id"]] > 0 for v in doc["vertices"])


# ---------------------------------------------------------------------------
# search: one check-closure decision per operation


class SearchOp:
    def __init__(self, name: str, doc: dict, expected: dict | None = None,
                 cover: dict | None = None, relabelled: dict | None = None):
        self.name = name
        self.doc = doc
        self.expected = expected or {}
        self.cover = cover
        self.relabelled = relabelled

    def run(self) -> str:
        graph = graphs.MarkedDualGraph.from_json(self.doc)
        certs = closure.search(graph, graph.mu)
        verification = [closure.verify_certificate(graph, graph.mu, c) for c in certs]
        return _dumps({
            "version": 1,
            "command": "check-closure",
            "member": "yes" if certs else "no-within-bounds",
            "certificates": [c.to_json() for c in certs],
            "verification": verification,
        })

    def check(self, text: str) -> list[str]:
        out = json.loads(text)
        certs = out["certificates"]
        bad = []
        for i, (cert, ver) in enumerate(zip(certs, out["verification"])):
            bad += [f"certificate {i}: {v}" for v in reference.decoration_violations(self.doc, cert)]
            if ver["verdict"] != cert["verdict"]:
                bad.append(f"certificate {i}: verifier says {ver['verdict']}")
        member = out["member"] == "yes"
        exp = self.expected
        if "member" in exp and member != exp["member"]:
            bad.append(f"member {member}, fixture says {exp['member']}")
        if "search_families" in exp and len(certs) != exp["search_families"]:
            bad.append(f"{len(certs)} families, fixture says {exp['search_families']}")
        if "matching_pairs" in exp:
            pairs = len(certs[0]["forced_fibers"]) if certs else 0
            if pairs != exp["matching_pairs"]:
                bad.append(f"{pairs} matching pairs, fixture says {exp['matching_pairs']}")
        graph = graphs.MarkedDualGraph.from_json(self.doc)
        if self.cover is not None:
            verdict = covers.closure_via_covers(
                graph, graph.mu, covers.CombinatorialCover.from_json(self.cover))
            if verdict["accepted"] != member:
                bad.append(f"cover route accepts={verdict['accepted']}, search member={member}")
        if self.relabelled is not None:
            other = graphs.MarkedDualGraph.from_json(self.relabelled)
            n = len(closure.search(other, other.mu))
            if n != len(certs):
                bad.append(f"relabelled copy has {n} certificates, not {len(certs)}")
        return bad


def _cheap_graph(rng: random.Random) -> dict:
    """A random stable graph on one or two vertices with at most two edges."""
    while True:
        n = rng.randint(1, 2)
        vs = [{"id": f"v{i}", "genus": rng.randint(0, 2)} for i in range(n)]
        ends = [] if n == 1 else [["v0", "v1"]]
        for _ in range(rng.randint(0, 2 - len(ends))):
            ends.append([f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"])
        pos = rng.choice([(1,), (2,), (1, 1)])
        negs, left = [], sum(pos)
        while left:
            take = rng.randint(1, left)
            negs.append(-take)
            left -= take
        doc = {"vertices": vs,
               "edges": [{"id": f"e{i}", "ends": e} for i, e in enumerate(ends)],
               "legs": [{"id": f"m{i}", "vertex": f"v{rng.randrange(n)}", "mu": m}
                        for i, m in enumerate([*pos, *negs])]}
        if _stable_connected(doc):
            return doc


def search_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name in BUNDLED:
        fx = fixtures.FIXTURES[name]
        doc = relabel(fx["graph"], rng)
        ops.append(SearchOp(name, doc, fx["expected"], fx.get("cover"),
                            relabel(doc, rng) if name in RELABEL_CHECKED else None))
    for name, graph in CORPUS["search"].items():
        ops.append(SearchOp(name, relabel(graph, rng)))
    for i in range(14):
        doc = _cheap_graph(rng)
        ops.append(SearchOp(f"random{i:02d}", doc, relabelled=relabel(doc, rng)))
    return ops


# ---------------------------------------------------------------------------
# oracle: Hurwitz existence and split shift pairs


class ExistsOp:
    def __init__(self, name: str, degree: int, genus: int, profiles: list[list[int]]):
        self.name = name
        self.degree = degree
        self.genus = genus
        self.profiles = profiles

    def run(self) -> str:
        problem = hurwitz.HurwitzProblem.build(self.degree, self.genus, self.profiles)
        answer = hurwitz.exists(problem)
        return _dumps({"problem": problem.to_json(), "exists": answer})

    def check(self, text: str) -> list[str]:
        got = json.loads(text)["exists"]
        want = reference.hurwitz_exists(self.degree, self.genus, self.profiles)
        return [] if got == want else [f"exists {got}, character formula says {want}"]


class SplitOp:
    def __init__(self, name: str, zero: tuple[int, ...], fiber: tuple[int, ...]):
        self.name = name
        self.zero = zero
        self.fiber = fiber

    def run(self) -> str:
        pair = witnesses.split_shift_pair(self.zero, self.fiber)
        return _dumps({"zero": self.zero, "fiber": self.fiber,
                       "pair": None if pair is None else [pair[0], pair[1], str(pair[2])]})

    def check(self, text: str) -> list[str]:
        pair = json.loads(text)["pair"]
        if pair is not None:
            return reference.check_shift_pair(self.zero, self.fiber,
                                              (pair[0], pair[1], Fraction(pair[2])))
        if reference.shift_pair_exists(self.zero, self.fiber):
            return ["no pair returned, but the root pool holds one"]
        return []


def _shuffled_profiles(profiles, rng: random.Random) -> list[list[int]]:
    out = [rng.sample(p, len(p)) for p in profiles]
    rng.shuffle(out)
    return out


def _cheap_problem(rng: random.Random) -> tuple[int, int, list]:
    """Random degree-5 branch data on three or four points meeting
    Riemann-Hurwitz for genus 0 or 1."""
    parts = [p for p in reference.partitions(5) if p != (1,) * 5]
    while True:
        profiles = [list(rng.choice(parts)) for _ in range(rng.randint(3, 4))]
        ram = sum(5 - len(p) for p in profiles)
        if ram in (8, 10):
            return 5, (ram - 8) // 2, profiles


def oracle_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for i, p in enumerate(CORPUS["oracle"]["exists"]):
        ops.append(ExistsOp(f"exists{i:02d}", p["degree"], p["genus"],
                            _shuffled_profiles(p["profiles"], rng)))
    for zero, fiber in CORPUS["oracle"]["split_shift_pair"]:
        name = "split_" + "_".join("-".join(map(str, m)) for m in (zero, fiber))
        ops.append(SplitOp(name, tuple(zero), tuple(fiber)))
    for i in range(14):
        d, g, profiles = _cheap_problem(rng)
        ops.append(ExistsOp(f"random{i:02d}", d, g, profiles))
    return ops


# ---------------------------------------------------------------------------
# levels: level structures up to isomorphism


class LevelsOp:
    def __init__(self, name: str, doc: dict):
        self.name = name
        self.doc = doc

    def run(self) -> str:
        graph = graphs.MarkedDualGraph.from_json(self.doc)
        found = graphs.enumerate_level_structures(graph)
        return _dumps({"count": len(found), "levels": [ls.to_json() for ls in found]})

    def check(self, text: str) -> list[str]:
        got = json.loads(text)["count"]
        want = reference.level_structure_count(self.doc)
        return [] if got == want else [f"{got} level structures, Burnside says {want}"]


def _graph(n: int, edges, genus=None, legs=()) -> dict:
    genus = genus or [0] * n
    return {"vertices": [{"id": f"v{i}", "genus": genus[i]} for i in range(n)],
            "edges": [{"id": f"e{k}", "ends": [f"v{a}", f"v{b}"]} for k, (a, b) in enumerate(edges)],
            "legs": [{"id": f"l{k}", "vertex": f"v{v}", "mu": m} for k, (v, m) in enumerate(legs)]}


def _shapes(n: int) -> dict[str, dict]:
    star = [(0, i) for i in range(1, n)]
    complete = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {
        f"star{n}": _graph(n, star),
        f"banana_star{n}": _graph(n, [e for e in star for _ in range(2)]),
        f"star_chord{n}": _graph(n, star + [(1, 2)]),
        f"complete{n}": _graph(n, complete),
        f"complete_two_genera{n}": _graph(n, complete, [0, 0, 0, 1, 1, 1][:n]),
    }


# Colour refinement stops after a different number of rounds for different
# level structures of these graphs, and enumeration raises TypeError when it
# sorts the mixed-depth keys.  They stay in the workload as failed operations,
# unrenamed so that the failures do not depend on the seed.
FAILING = {f"{kind}{n}": _graph(n, edges) for n in (5, 6) for kind, edges in (
    ("cycle", [(i, (i + 1) % n) for i in range(n)]),
    ("path", [(i, i + 1) for i in range(n - 1)]))}


def _distinct_colour_graph(n: int, rng: random.Random) -> dict:
    """A random connected graph with n vertices and n + 1 edges whose vertices
    all differ in (genus, leg count), so refinement is discrete at once."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(2)]
    colours = rng.sample([(g, k) for g in range(3) for k in range(2)], n)
    legs = [(v, 1) for v, (_, k) in enumerate(colours) for _ in range(k)]
    doc = _graph(n, edges, [g for g, _ in colours], legs)
    return relabel(doc, rng)


def levels_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    fixed = {**_shapes(5), **_shapes(6),
             "level_dependence": fixtures.FIXTURES["level_dependence"]["graph"]}
    for name, doc in fixed.items():
        ops.append(LevelsOp(name, relabel(doc, rng)))
    for name, doc in FAILING.items():
        ops.append(LevelsOp(name, doc))
    for n, count in ((5, 18), (6, 9)):
        for i in range(count):
            ops.append(LevelsOp(f"random{n}_{i:02d}", _distinct_colour_graph(n, rng)))
    return ops


WORKLOADS = {"search": search_ops, "oracle": oracle_ops, "levels": levels_ops}
