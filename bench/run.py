"""dtlmon benchmark: one workload per run, closed loop, one client.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload rescue_study --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of operations with every layer wrapped and prints per-layer metrics
plus the tracing overhead against an untraced run of the same operations in
a child process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads, metrics and reference figures.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9  # fresh processes that each time one set-up
PROCESSES = 3  # fresh processes per run; each gets a third of the time
CHILD_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if str(SRC) in sys.path:
        return
    if not (SRC / "dtlmon" / "__init__.py").is_file():
        _fail(f"no dtlmon sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import dtlmon

    if Path(dtlmon.__file__).resolve().parent != SRC / "dtlmon":
        _fail(f"imported dtlmon from {dtlmon.__file__}, not from {SRC}")


def _child(args, *extra) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(workload, size: int, budget=None, tracer=None):
    """Closed loop with one client: each operation starts when the previous
    one (and its untimed check) has finished.

    Runs whole rounds of ``size`` operations.  Replayable workloads run a
    first round that warms the caches and is not timed, then repeat the
    round until ``budget`` seconds of operation time have passed; without a
    budget the round runs once and is timed.  The first round is checked
    against the references and later rounds must reproduce its verdicts.
    Before each untraced operation the host-speed probe runs once, untimed
    by the operation.  Returns each operation's latency samples, the
    timeline of (operation, latency, probe time) and the operation counts.
    """
    repeat = budget is not None and workload.repeat
    samples = [[] for _ in range(size)]
    timeline = []  # (operation, latency, probe time) of every timed operation
    first = [None] * size
    attempted = failed = incorrect = rounds = 0
    busy = 0.0
    while True:
        for i in range(size):
            probe_s = time_probe() if tracer is None else 0.0
            if tracer is not None:
                tracer.begin_op(i)
            start = time.perf_counter()
            try:
                payload = workload.op(i)
            except Exception:  # an operation that raises counts as failed
                failed += 1
                traceback.print_exc()
                payload = None
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            attempted += 1
            if not (repeat and rounds == 0):
                busy += elapsed
                samples[i].append(elapsed)
                timeline.append((i, elapsed, probe_s))
            if payload is None:
                continue
            verdicts = [(r.feasible, r.probability) for r in payload[1]]
            try:
                if rounds == 0:
                    workload.check(i, payload)
                    first[i] = verdicts
                elif verdicts != first[i]:
                    raise RuntimeError(f"round {rounds} verdicts {verdicts} != {first[i]}")
            except Exception as exc:
                incorrect += 1
                print(f"bench: check failed on operation {i}: {exc!r}", file=sys.stderr)
        rounds += 1
        if not repeat or busy >= budget:
            break
    return samples, timeline, attempted, failed, incorrect, rounds


def _setup(args, tracer=None):
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(args.seed, workdir, tracer)
    return workload, workdir, time.perf_counter() - START


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["rescue_study", "dense_check", "spec_sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, a few operations")
    parser.add_argument("--ops", type=int, help="run exactly this many operations")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.setup_only:
        workload, workdir, setup_s = _setup(args)
        shutil.rmtree(workdir, ignore_errors=True)
        scaled = setup_s * PROBE_REF_MS * 1e-3 / probe_median()
        print(json.dumps({"setup_s": scaled, "raw_setup_s": setup_s}))
        return 0
    if args.worker:
        print(json.dumps(_one_process(args)))
        return 0
    return traced(args) if args.trace else untraced(args)


# The host-speed probe: a fixed mix of interpreter arithmetic, small-object
# churn and small numpy operations, the kinds of work dtlmon's operations do.
# Its time on the reference host (the host the README's figures come from)
# defines the reference speed; see ``normalised``.
PROBE_REF_MS = 1.0
PROBE_WINDOW = 12  # probes on each side of an operation in its local speed


def time_probe() -> float:
    """Seconds taken by one run of the host-speed probe."""
    import numpy as np

    vec = np.linspace(0.0, 1.0, 48)
    mat = np.full((48, 48), 1.0 / 48)
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    seen = {}
    for i in range(700):
        key = frozenset((i % 13, i % 7))
        seen[key] = seen.get(key, 0) + 1
    total = 0.0
    for i in range(60):
        total += float((mat[i % 48] * vec).sum())
    return time.perf_counter() - start


def normalised(timeline, size: int):
    """Each operation's latencies at the reference host speed.

    The host's speed drifts by tens of percent over seconds, so a latency
    is scaled by ``PROBE_REF_MS`` over the median probe time of the
    operations around it (``PROBE_WINDOW`` on each side): an operation
    timed while the host ran 20% slow counts 20% less.  Returns per
    operation the list of scaled latencies in seconds.
    """
    probes = [p for _, _, p in timeline]
    samples = [[] for _ in range(size)]
    for j, (i, elapsed, _) in enumerate(timeline):
        local = statistics.median(probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1])
        samples[i].append(elapsed * PROBE_REF_MS * 1e-3 / local)
    return samples


def probe_median(n: int = 15) -> float:
    """Median seconds of ``n`` probe runs: the host's speed just now."""
    return statistics.median(time_probe() for _ in range(n))


def _report_extra(args, extra: dict) -> None:
    calib = probe_median() * 1e3
    extra = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calibration_ms": calib, **extra,
    }
    print(f"bench: {json.dumps(extra)}", file=sys.stderr)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(extra, indent=1) + "\n", encoding="utf-8")


def _one_process(args) -> dict:
    """Set up and measure in this process: ``--ops`` operations once, or
    whole rounds for this process's share of ``--seconds``."""
    workload, workdir, setup_s = _setup(args)
    workload.prepare_reference()
    if args.ops is None:
        size, budget = workload.ops_per_round(args.seconds), args.seconds / PROCESSES
    else:
        size, budget = args.ops, None
    samples, timeline, attempted, failed, incorrect, rounds = _measure(workload, size, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "samples": normalised(timeline, size), "raw_samples": samples,
        "probe_ms": statistics.median(p for _, _, p in timeline) * 1e3,
        "attempted": attempted, "failed": failed,
        "incorrect": incorrect, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s, **workload.summary(),
    }


def _latency_metrics(parts, key: str) -> dict:
    """Each operation's latency is the median of its samples from all
    processes; ``ops_per_s`` is the operations of a round over their sum."""
    latencies = [statistics.median(sum(op, [])) for op in zip(*(p[key] for p in parts))]
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": _percentile(latencies, 90) * 1e3, "unit": "ms"},
    }


def untraced(args) -> int:
    """End-to-end metrics at the reference host speed (see ``normalised``).
    The run is split over ``PROCESSES`` fresh processes, so that no single
    interpreter's state (hash seed, memory layout) sets the result.
    ``--ops`` measures once, in this process.  The unscaled figures go to
    the summary on standard error."""
    if args.ops is None:
        parts = [_child(args, "--worker") for _ in range(PROCESSES)]
    else:
        parts = [_one_process(args)]
    setups = [_child(args, "--setup-only") for _ in range(args.setup_samples)]
    metrics = {
        **_latency_metrics(parts, "samples"),
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in parts), "unit": "MB"},
    }
    raw = {name: m["value"] for name, m in _latency_metrics(parts, "raw_samples").items()}
    incorrect = sum(p["incorrect"] for p in parts)
    _report_extra(args, {
        **{k: parts[0][k] for k in ("traces", "feasible", "tied", "interior")},
        "rounds": [p["rounds"] for p in parts],
        "unscaled": {**raw, "setup_s": statistics.median(s["raw_setup_s"] for s in setups)},
        "probe_ms": [p["probe_ms"] for p in parts],
        "setup_in_process_s": [p["setup_s"] for p in parts],
        "peak_rss_mb_per_process": [p["peak_rss_mb"] for p in parts],
        "setup_samples_s": [s["setup_s"] for s in setups], "incorrect": incorrect,
    })
    print(json.dumps({
        "correct": incorrect == 0, "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts), "metrics": metrics,
    }))
    return 0


def traced(args) -> int:
    _import_program()
    n_ops = str(_trace_ops(args))
    from_child = _child(args, "--worker", "--ops", n_ops)
    untraced_s = sum(sum(op) for op in from_child["raw_samples"])
    from tracing import Tracer

    tracer = Tracer()
    workload, workdir, _ = _setup(args, tracer)
    workload.prepare_reference()
    tracer.install()
    try:
        samples, _, attempted, failed, incorrect, _ = _measure(
            workload, int(n_ops), None, tracer
        )
    finally:
        tracer.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = tracer.layer_metrics(attempted, workload.dp_pairs)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (sum(sum(op) for op in samples) / untraced_s - 1.0), "unit": "%",
    }
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    tracer.dump_spans(spans / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    missing = tracer.missing_metrics()
    for metric, why in missing.items():
        print(f"bench: per-layer metric {metric} missing ({why})", file=sys.stderr)
    _report_extra(args, {**workload.summary(), "missing": missing, "incorrect": incorrect})
    print(json.dumps({
        "correct": incorrect == 0 and from_child["incorrect"] == 0, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0


def _trace_ops(args) -> int:
    if args.ops is not None:
        return args.ops
    from workloads import WORKLOADS

    return WORKLOADS[args.workload].trace_ops


def smoke() -> int:
    """Every workload with a few operations, traced and untraced, with all
    checks; exits 1 if any check fails."""
    ok = True
    for name in ("rescue_study", "dense_check", "spec_sweep"):
        for trace in ("0", "1"):
            args = argparse.Namespace(workload=name, seed=1, seconds=1.0)
            out = _child(args, "--trace", trace, "--ops", "6", "--setup-samples", "1")
            print(f"{name} trace={trace}: {json.dumps(out)}")
            ok = ok and out["correct"] and out["failed"] == 0
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
