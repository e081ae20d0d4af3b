"""``scripts/bench_pairs.summarize`` on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(pair, side, run_s, ops, failed=0):
    return {"workload": "oracle", "seed": 100 + pair, "pair": pair, "side": side,
            "order_in_pair": 1,
            "result": {"correct": True, "attempted": 40, "failed": failed,
                       "metrics": {"run_s": {"value": run_s, "unit": "s"}}},
            "operations": ops}


def test_summarize_reports_metric_and_operation_medians():
    runs = []
    for pair, (parent_s, change_s) in enumerate([(1.0, 0.5), (1.2, 0.7), (0.8, 0.9)]):
        runs.append(_run(pair, "parent", parent_s, {"a": parent_s, "b": 0.1}, failed=pair))
        runs.append(_run(pair, "change", change_s, {"a": change_s / 2, "b": 0.2}))
    entry = bench_pairs.summarize(runs)["oracle"]

    run_s = entry["run_s"]
    assert run_s["parent"] == {"median": 1.0, "q1": 0.9, "q3": 1.1, "n": 3}
    assert run_s["change"]["median"] == 0.7
    assert run_s["change_wins"] == "2/3"
    assert run_s["median_change"] == pytest.approx(-0.3)
    assert entry["failed"] == {"parent": 3, "change": 0}
    assert entry["attempted"] == {"parent": 120, "change": 120}

    ops = entry["operations"]
    assert list(ops) == ["a", "b"]
    assert ops["a"]["parent"] == 1.0 and ops["a"]["change"] == 0.35
    assert ops["a"]["median_change"] == pytest.approx(-0.65)
    assert ops["b"] == {"parent": 0.1, "change": 0.2, "median_change": pytest.approx(1.0)}
