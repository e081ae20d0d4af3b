"""Cold-start benchmark of drloci, end to end and by layer.

    python3 perfbench/run.py --workload search|oracle|levels --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Every operation runs in a child forked from this process after it
has imported the package and built the inputs, so each starts from the
state of a fresh drloci process: nothing one operation caches (the
package's lru_caches, cached properties) can speed up the next.  The
workload's fixed list of operations is run in whole rounds until S
seconds have passed; an operation's time is its median over the rounds.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  Output checks run in
the first round, in the operation's process, after its timer stops.
Per-operation figures, digests and spans go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7

PER_LAYER = [
    ("closure.search.self_s", "s"),
    ("homology.evaluation_system.self_s", "s"),
    ("homology.evaluation_system.calls", "count"),
    ("homology.evaluation_system.distinct", "count"),
    ("homology.level_filtration.self_s", "s"),
    ("homology.level_filtration.calls", "count"),
    ("exact.solve_forms.self_s", "s"),
    ("exact.solve_forms.calls", "count"),
    ("exact.integer_kernel_basis.self_s", "s"),
    ("exact.integer_kernel_basis.calls", "count"),
    ("decorations.validate_twr.self_s", "s"),
    ("decorations.validate_twr.calls", "count"),
    ("hurwitz.exists.self_s", "s"),
    ("hurwitz.exists.calls", "count"),
    ("hurwitz.exists.distinct", "count"),
    ("hurwitz.component_problem.self_s", "s"),
    ("witnesses.split_shift_pair.self_s", "s"),
    ("witnesses.split_shift_pair.calls", "count"),
    ("witnesses.realize_component.self_s", "s"),
    ("graphs.canonical_key.self_s", "s"),
    ("graphs.canonical_key.calls", "count"),
    ("graphs.enumerate_level_structures.self_s", "s"),
    ("graphs.level_structures", "count"),
    ("closure.verify_certificate.self_s", "s"),
    ("closure.certificates", "count"),
    ("traced.run_s", "s"),
]


def _import_program():
    """Import drloci from this checkout's source tree, and nothing else."""
    package = SRC / "drloci"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no drloci source at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import drloci
    if Path(drloci.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported drloci from {drloci.__file__}, not {package}")
    import workloads
    return workloads


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Import plus input generation, each time in a fresh interpreter; the
    first run, which may compile bytecode, is not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"run.py: set-up failed:\n{done.stderr}")
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def _child(op, tracer, check: bool) -> dict:
    # a collection writes to every tracked object inherited from the parent,
    # so the copy-on-write faults fall before the timer starts
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        text, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        text, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    rec = {"seconds": seconds,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "error": error}
    if text is not None:
        rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        if check:
            try:
                rec["problems"] = op.check(text)
            except Exception:
                rec["problems"] = [f"check raised {traceback.format_exc()}"]
    if tracer is not None:
        rec["layers"] = tracer.summary()
        if check:
            rec["spans"] = tracer.span_rows(t0)
    return rec


def _run_cold(op, tracer, check: bool) -> dict:
    """Run one operation in a forked child and return its record."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            data = json.dumps(_child(op, tracer, check)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit(f"run.py: the process of operation {op.name} ended with status {status}")
    return json.loads(data)


def _rounds(ops, seconds: float, tracer) -> list[list[dict]]:
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = not rounds
        rounds.append([_run_cold(op, tracer, check=first) for op in ops])
        print(f"round {len(rounds)} done at {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "oracle", "levels"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        workloads = _import_program()
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - _T0)
        return 0

    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    workloads = _import_program()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    rounds = _rounds(ops, args.seconds, tracer)
    first = rounds[0]
    problems = {op.name: rec["problems"] for op, rec in zip(ops, first) if rec.get("problems")}
    errors = {op.name: rec["error"] for op, rec in zip(ops, first) if rec["error"]}
    failed = sum(1 for r in rounds for rec in r if rec["error"])
    per_op = [statistics.median(r[i]["seconds"] for r in rounds) for i in range(len(ops))]
    digest = hashlib.sha256("".join(
        f"{op.name}:{rec.get('sha256', 'failed')}\n" for op, rec in zip(ops, first)).encode()
    ).hexdigest()

    if args.trace:
        values = {}
        for name, _ in PER_LAYER[:-1]:
            values[name] = statistics.median(
                sum(rec["layers"].get(name, 0) for rec in r) for r in rounds)
        values["traced.run_s"] = sum(per_op)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "run_s": {"value": sum(per_op), "unit": "s"},
            "op_s.p50": {"value": statistics.median(per_op), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(rec["rss_kb"] for r in rounds for rec in r) / 1024,
                            "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "setup_s": setup, "sha256": digest, "errors": errors, "problems": problems,
        "operations": {op.name: {"median_s": t, "seconds": [r[i]["seconds"] for r in rounds],
                                 "sha256": first[i].get("sha256"),
                                 "layers": first[i].get("layers")}
                       for i, (op, t) in enumerate(zip(ops, per_op))},
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        with open(OUT / f"trace-{stem}.json", "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"],
                       "operations": {op.name: rec["spans"] for op, rec in zip(ops, first)}}, fh)
    print(f"sha256 {args.workload} seed {args.seed}: {digest}", file=sys.stderr)
    for name, why in sorted(problems.items()):
        print(f"check failed: {name}: {why}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": len(rounds) * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
