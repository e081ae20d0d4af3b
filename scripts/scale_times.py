"""Search times on the larger graphs the committed workloads do not run.

    python3 scripts/scale_times.py [--graphs NAME ...]

Each graph is searched with ``closure.search`` and every certificate is
then verified, as ``drloci check-closure`` does.  One tab-separated line
per graph: its name, the seconds of the search, the seconds of the
verifications, the number of certificates, and the sha256 of the
certificate and verification JSON, so that two checkouts can be compared
for both speed and bytes.  The script imports the ``drloci`` package from
the ``src/`` next to it, so a copy of it placed in another checkout times
that checkout.

The graphs:
- ``ld9-m<m>``: the bundled ``level_dependence`` graph with v5 raised to
  genus 1, so that it is stable (total genus 9), and legs z:+m, p:-m;
- ``<n>-path-m<m>`` and ``<n>-cycle-m<m>``: genus-1 vertices v0 .. v(n-1)
  on a path (or a cycle), with legs z@v0:+m and p@v(n//2):-m.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drloci.closure import search, verify_certificate  # noqa: E402
from drloci.fixtures import FIXTURES  # noqa: E402
from drloci.graphs import MarkedDualGraph  # noqa: E402

GRAPHS = ["ld9-m2", "ld9-m3", "ld9-m4", "5-cycle-m2", "6-path-m2", "6-cycle-m3",
          "7-path-m2", "7-cycle-m2", "8-path-m2"]


def ld9(m: int) -> MarkedDualGraph:
    doc = FIXTURES["level_dependence"]["graph"]
    return MarkedDualGraph.from_json({
        **doc,
        "vertices": [{**v, "genus": 1} if v["id"] == "v5" else v for v in doc["vertices"]],
        "legs": [{**l, "mu": m if l["mu"] > 0 else -m} for l in doc["legs"]]})


def ring(n: int, cycle: bool, m: int) -> MarkedDualGraph:
    return MarkedDualGraph.build(
        [(f"v{i}", 1) for i in range(n)],
        [(f"e{i}", (f"v{i}", f"v{(i + 1) % n}")) for i in range(n if cycle else n - 1)],
        [("z", "v0", m), ("p", f"v{n // 2}", -m)])


def build(name: str) -> MarkedDualGraph:
    shape, m = name.rsplit("-m", 1)
    if shape == "ld9":
        return ld9(int(m))
    n, kind = shape.split("-")
    return ring(int(n), kind == "cycle", int(m))


def run(name: str) -> tuple[float, float, int, str]:
    """Seconds of search and of verification, certificate count and output
    digest of one graph."""
    graph = build(name)
    start = time.perf_counter()
    certs = search(graph, graph.mu)
    searched = time.perf_counter()
    verification = [verify_certificate(graph, graph.mu, c) for c in certs]
    verified = time.perf_counter()
    text = json.dumps({"certificates": [c.to_json() for c in certs],
                       "verification": verification}, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return searched - start, verified - searched, len(certs), digest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", nargs="+", choices=GRAPHS, default=GRAPHS)
    args = parser.parse_args(argv)
    for name in args.graphs:
        search_s, verify_s, count, digest = run(name)
        print(f"{name}\t{search_s:.2f}\t{verify_s:.2f}\t{count}\t{digest}", flush=True)


if __name__ == "__main__":
    main()
