"""Run one infolab benchmark workload in-process and print its metrics.

    python3 perfbench/run.py --workload entangle --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
Workloads: entangle, dynamics, sweep (see perfbench/README.md); ``--workload
all`` runs each in turn in its own process. Set-up generates a fixed pool of
blocks of whole mix cycles from the seed; the runner cycles through the pool
until ``--seconds`` have passed and every pool op has run at least once.
Outputs are checked after each block, outside the timed region. With
``--trace 1`` each block runs twice, once recording spans around each library
call, and the JSON holds per-layer metrics instead of end-to-end ones. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` and ``failed`` count distinct pool
ops, so they depend on the seed only, not on how fast the machine runs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402  (stdlib only; numpy and infolab load in setup())

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded numpy, set before it is imported

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # span files and the temp dirs of write ops
WORKLOAD_NAMES = ("entangle", "dynamics", "sweep")
SETUP_PROBES = 6  # fresh processes that repeat set-up, for the setup_s median

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pool-blocks", type=int, help=argparse.SUPPRESS)  # smaller pools for self-tests
    return parser.parse_args(argv)


def setup(args, tmp: Path):
    """Everything before the first timed op: imports, the pool's inputs, and
    a warm-up op on fixed inputs."""
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload](tmp)
    rng = np.random.default_rng(args.seed)
    pool = [workload.make_block(rng) for _ in range(args.pool_blocks or workload.pool_blocks)]
    try:
        workload.warm_up(spans.Tracer())
    except Exception as err:  # the timed ops will fail the same way and be counted
        print(f"warm-up failed: {type(err).__name__}: {err}", file=sys.stderr)
    return workload, pool, time.perf_counter() - T_START


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes, each importing everything anew."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--setup-probe",
    ] + (["--pool-blocks", str(args.pool_blocks)] if args.pool_blocks else [])
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_block(workload, tracer, block, first_op_id):
    """Run one block's ops back to back; returns its wall time and outputs."""
    outputs = []
    block_start = time.perf_counter_ns()
    for op_id, (kind, inputs) in enumerate(block, first_op_id):
        start = time.perf_counter_ns()
        try:
            output = tracer.op(op_id, kind, workload.run, tracer, kind, inputs)
        except Exception as err:  # a failing op is counted, not fatal
            output = err
        outputs.append((kind, inputs, output, time.perf_counter_ns() - start))
    return time.perf_counter_ns() - block_start, outputs


def measure(args, workload, pool, tracer):
    """Cycle through the pool's blocks until ``args.seconds`` have passed and
    every block has run at least once; returns per-block and per-op records
    and the time spent checking. A traced run runs each block twice on the
    same inputs, once with spans and once without, alternating which goes
    first, so the pair gives the tracing overhead."""
    blocks = []  # (block index, items, wall_ns, traced)
    ops = []  # (kind, latency_ns, traced, failures, pool op index)
    check_ns = 0
    deadline = time.perf_counter() + args.seconds
    for index in itertools.count():
        block = pool[index % len(pool)]
        first_item = (index % len(pool)) * len(block)
        items = sum(workload.items[kind] for kind, _ in block)
        passes = (False,) if not args.trace else (False, True) if index % 2 == 0 else (True, False)
        for traced in passes:
            tracer.enabled = traced
            wall, outputs = run_block(workload, tracer, block, len(ops))
            tracer.enabled = False
            start = time.perf_counter_ns()
            for item, (kind, inputs, output, latency) in enumerate(outputs, first_item):
                try:
                    if isinstance(output, Exception):
                        raise output
                    failures = workload.check(kind, inputs, output)
                except Exception as err:  # the op raised, or left output the check cannot read
                    failures = [("invariant", f"{type(err).__name__}: {err}")]
                ops.append((kind, latency, traced, failures, item))
            check_ns += time.perf_counter_ns() - start
            blocks.append((index, items, wall, traced))
        if time.perf_counter() >= deadline and index + 1 >= len(pool):
            return blocks, ops, check_ns


def item_failures(pool, ops) -> list[list[tuple[str, str]]]:
    """The distinct failures of each pool op over all the times it ran."""
    per_item = [[] for _ in range(sum(len(block) for block in pool))]
    for *_, failures, item in ops:
        per_item[item] += [f for f in failures if f not in per_item[item]]
    return per_item


def end_to_end(workload, blocks, ops, per_item, setup_times):
    latencies = [lat for _, lat, traced, *_ in ops if not traced]
    tail = statistics.quantiles(latencies, n=100)[workload.tail_percentile - 1]
    ok = sum(not failures for failures in per_item)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(items / (wall / 1e9) for _, items, wall, traced in blocks if not traced),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail / 1e6,
        "ok_ratio": ok / len(per_item),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(lat > tail for lat in latencies)
    notes = [
        f"op_tail_ms is p{workload.tail_percentile} of {len(latencies)} untraced ops, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: not reliable, run longer)"),
        f"items_per_s is the median of {sum(not t for *_, t in blocks)} untraced blocks",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setup_times),
    ]
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, notes


def per_layer(workload, blocks, ops, per_item, tracer, check_ns):
    import workloads

    stats = spans.call_stats(tracer.spans, workloads.LAYER_CALLS)
    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.busy_ms"] = (s["busy_ms"], "ms")
        metrics[f"{name}.p50_us"] = (s["p50_us"], "us")
        metrics[f"{name}.errors"] = (s["errors"], "count")
        if name in workloads.WORK_RATES:
            rate, units = workloads.WORK_RATES[name]
            per_unit = s["busy_ms"] * 1e3 / (s["calls"] * units) if s["calls"] else 0.0
            metrics[f"{name}.{rate}"] = (per_unit, "us")
    metrics["entanglement.info_condition_entangled.p90_us"] = (
        stats["entanglement.info_condition_entangled"]["p90_us"], "us",
    )
    extras = workload.layer_extras(per_item)
    for name, unit in workloads.LAYER_EXTRAS.items():
        metrics[name] = (extras.get(name, 0.0), unit)
    op_spans = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    own = spans.self_times_ns(tracer.spans)
    metrics["bench.op_self_us"] = (statistics.median(own[i] for i in op_spans) / 1e3, "us")
    metrics["bench.check_ms"] = (check_ns / 1e6 / len(ops), "ms")

    walls = {(index, traced): wall for index, _, wall, traced in blocks}
    ratios = [walls[index, True] / walls[index, False] for index, _, _, traced in blocks if traced]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


def summary_lines(args, workload, pool, ops, blocks, per_item, failed):
    kinds = Counter(kind for kind, *_ in ops)
    shares = ", ".join(f"{k} {v:.2f}" for k, v in workload.mix_shares().items())
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"mix shares: {shares}  (cycle of {len(workload.cycle)} ops, "
        f"{workload.cycles_per_block} cycles per block, {len(pool)} blocks in the pool)",
        f"ops run {len(ops)} (" + ", ".join(f"{k} {n}" for k, n in kinds.items()) + f"), blocks {len(blocks)}",
    ]
    messages = Counter(msg for failures in per_item for _, msg in failures)
    lines.append(f"ok {len(per_item) - failed}/{len(per_item)} pool ops; {failed} failed the oracle checks")
    lines += [f"  {n} x {msg}" for msg, n in messages.most_common(10)]
    return lines


def run(args, tmp: Path) -> int:
    workload, pool, own_setup = setup(args, tmp)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    tracer = spans.Tracer()
    blocks, ops, check_ns = measure(args, workload, pool, tracer)
    per_item = item_failures(pool, ops)
    e2e, notes = end_to_end(workload, blocks, ops, per_item, [own_setup] + probe_setup(args))

    failed = sum(bool(failures) for failures in per_item)
    broken = sum(any(sev == "invariant" for sev, _ in failures) for failures in per_item)
    for line in summary_lines(args, workload, pool, ops, blocks, per_item, failed) + notes:
        print(line)
    rows = dict(e2e)
    if args.trace:
        layers = per_layer(workload, blocks, ops, per_item, tracer, check_ns)
        rows.update(layers)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(span_file, {"workload": args.workload, "seed": args.seed})
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    reported = layers if args.trace else e2e
    print(json.dumps({
        # ``correct`` is false when any output is broken; ops whose maximum is
        # merely short of the exact one count as failed but not as broken.
        "correct": broken == 0,
        "attempted": len(per_item),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


def run_each(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--pool-blocks", str(args.pool_blocks)] if args.pool_blocks else [])
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    if not (SRC / "infolab" / "__init__.py").is_file():
        print(f"error: no infolab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
