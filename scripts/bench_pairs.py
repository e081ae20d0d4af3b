"""Paired cold-start benchmark runs of two source checkouts.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --run levels:901 --run search:701 --pairs 10 --out BENCH_8.json

Each DIR is a checkout holding src/ and perfbench/ (for instance made with
`git archive`).  For every --run WORKLOAD:FIRST_SEED, pair i runs
`python3 perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+i` once in
each checkout, from that checkout, for run.py's own default run length;
the side that runs first alternates by pair.  After each run the median
time of every operation is read from that checkout's
perfbench/out/WORKLOAD-seedN-trace0.json.  Then each side runs once with
--seconds 0 for each of seeds 1, 3 and 7, and the output digests it prints
are recorded.  Each side also records the line count of its
src/drloci/*.py and the *.calls counts of one --trace 1 --seconds 0 run
per workload on its first seed.  The JSON written holds every run
and, per workload and metric, each side's median and quartiles, how many
pairs the change won (lower is better for every end-to-end metric) and the
relative change of the median; per operation, each side's median over the
pairs of its time and the relative change of that median.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGEST_SEEDS = (1, 3, 7)


def run_once(checkout: Path, workload: str, seed: int, *extra: str,
             trace: int = 0) -> tuple[dict, str]:
    """One run of the checkout's own perfbench/run.py: its JSON and stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *extra],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [by_pair[p] for p in sorted(by_pair)]
        entry = {}
        for metric in pairs[0]["parent"]["result"]["metrics"]:
            values = {s: [p[s]["result"]["metrics"][metric]["value"] for p in pairs]
                      for s in SIDES}
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            stats = {s: spread(values[s]) for s in SIDES}
            entry[metric] = {
                **stats, "change_wins": f"{wins}/{len(pairs)}",
                "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1}
        for count in ("failed", "attempted"):
            entry[count] = {s: sum(p[s]["result"][count] for p in pairs) for s in SIDES}
        entry["operations"] = {}
        for name in pairs[0]["parent"]["operations"]:
            medians = {s: statistics.median(p[s]["operations"][name] for p in pairs)
                       for s in SIDES}
            entry["operations"][name] = {
                **medians, "median_change": medians["change"] / medians["parent"] - 1}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:FIRST_SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkout = {"parent": args.parent, "change": args.change}

    runs = []
    for item in args.run:
        workload, first = item.rsplit(":", 1)
        for pair in range(args.pairs):
            seed = int(first) + pair
            for order, side in enumerate(SIDES[::-1] if pair % 2 else SIDES, 1):
                result, _ = run_once(checkout[side], workload, seed)
                report = checkout[side] / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
                operations = json.loads(report.read_text())["operations"]
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                             "order_in_pair": order, "result": result,
                             "operations": {name: op["median_s"]
                                            for name, op in operations.items()}})
                print(workload, seed, side, result["metrics"]["run_s"]["value"], file=sys.stderr)

    digests = {side: [] for side in SIDES}
    calls = {side: {} for side in SIDES}
    first_seeds: dict[str, int] = {}
    for item in args.run:
        workload, first = item.rsplit(":", 1)
        first_seeds.setdefault(workload, int(first))
    for workload, first in first_seeds.items():
        for seed in DIGEST_SEEDS:
            for side in SIDES:
                _, err = run_once(checkout[side], workload, seed, "--seconds", "0")
                digests[side] += [line for line in err.splitlines() if line.startswith("sha256 ")]
        for side in SIDES:
            traced, _ = run_once(checkout[side], workload, first, "--seconds", "0", trace=1)
            calls[side][workload] = {name: m["value"] for name, m in traced["metrics"].items()
                                     if name.endswith(".calls")}
    src_lines = {side: sum(len(p.read_text().splitlines())
                           for p in (checkout[side] / "src" / "drloci").glob("*.py"))
                 for side in SIDES}

    doc = {
        "what": "Paired cold-start benchmark runs of a parent and a changed checkout.",
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}; each side run"
                " from its own copy of src/ and perfbench/",
        "pairing": f"{args.pairs} pairs per workload on consecutive seeds; the side that runs"
                   " first alternates by pair (order_in_pair)",
        "summary": summarize(runs),
        "digests": digests,
        "digests_equal": digests["parent"] == digests["change"],
        "src_lines": src_lines,
        "traced_calls": calls,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
