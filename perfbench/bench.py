"""Run orchestration: set-up timing, reference checks, the measured loop,
the traced run, and the printed result."""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import navlim

from . import calibration, metrics, tracing, workloads

# The latency tail comes from LATENCY_SAMPLES calls spread evenly over a
# run, so its level is the same on every commit however many calls fit in
# the run: with 40 samples the highest level leaving ten samples above it is
# p75. The median uses every call of the run.
LATENCY_SAMPLES = 40

# Calls made under tracing; fixed so that call counts repeat exactly.
TRACE_CALLS = 12

# Fresh interpreters started per run to time set-up, half before and half
# after the measured calls so that a short burst of machine load moves few
# of them; the median is reported.
SETUP_REPEATS = 12

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Layer functions reported with calls, total_s and self_s.
TIMED_SPANS = (
    "cli.main",
    "simkit.persist",
    "simkit.generate_scenario",
    "simkit.run_trial",
    "simkit.scenario_hash",
    "simkit.audit",
    "models.full_pairs",
    "models.radius_pairs",
    "models.spatial_block",
    "models.temporal_block",
    "navinfo.assemble_position_efim",
    "navinfo.marginal_efim",
    "navinfo.speb",
    "navinfo.block_spebs",
    "navinfo.carry_over_step",
    "blockfim.eliminate_block",
    "blockfim.schur_complement",
    "blockfim.block_diag",
)

# Leaf functions reported with calls and total_s only.
COUNTED_SPANS = ("geom2d.r_dir", "geom2d.rotation", "linalg.eigh")

SETUP_CHILD = """\
import contextlib, io, time
started = time.perf_counter()
import navlim.cli
with contextlib.redirect_stdout(io.StringIO()):
    navlim.cli.main(["--help"])
seconds = time.perf_counter() - started
from perfbench import calibration
calibration.kernel_seconds()
print(repr(seconds), repr(calibration.speed()))
"""


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span in TIMED_SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.total_s", "s", "lower"), (f"{span}.self_s", "s", "lower")]
    for span in COUNTED_SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.total_s", "s", "lower")]
    out += [
        ("linalg.eigh.n3_sum", "count", "lower"),
        ("linalg.eigh.max_n", "count", "lower"),
        ("bounds.inf_share", "ratio", "lower"),
        ("bounds.count", "count", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


def measure_setup(root: Path, src: Path, repeats: int, warm_up: bool = False) -> list[tuple[float, float]]:
    """Cold start of `import navlim.cli` plus building the parser (through
    `main(["--help"])`), each in a fresh interpreter, as (seconds, speed
    factor calibrated in that interpreter right after). `warm_up` adds one
    unmeasured start first so that byte-code caches exist, as they do after
    an install."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(root)]))
    skip = 1 if warm_up else 0
    times = []
    for _ in range(skip + repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, speed = done.stdout.strip().splitlines()[-1].split()
        times.append((float(seconds), float(speed)))
    return times[skip:]


def timed_call(workload, seed: int, index: int, out_dir: str):
    """One workload call, with the machine speed calibrated right before it."""
    speed = calibration.speed()
    result = workload.call(seed, index, out_dir)
    result.speed = speed
    return result


def loop(workload, seed: int, out_dir: str, seconds: float, min_calls: int):
    """Call until both `seconds` of calls and `min_calls` calls are done."""
    results = []
    started = time.perf_counter()
    while len(results) < min_calls or time.perf_counter() - started < seconds:
        results.append(timed_call(workload, seed, len(results), out_dir))
    return results


def _ops_per_s(results, scaled: bool = True) -> float:
    seconds = sum(r.scaled_seconds if scaled else r.seconds for r in results)
    return sum(r.ops for r in results) / seconds


def _counts(results, problems) -> tuple[int, int]:
    attempted = sum(r.ops for r in results)
    failed = attempted if problems else sum(r.failed for r in results)
    return attempted, failed


def run_untraced(workload, seed: int, out_dir: str, seconds: int, root: Path, src: Path):
    setup = measure_setup(root, src, SETUP_REPEATS // 2, warm_up=True)
    problems = workload.reference_checks(seed, out_dir)
    results = loop(workload, seed, out_dir, seconds, LATENCY_SAMPLES)
    rss = metrics.peak_rss_mb()
    setup += measure_setup(root, src, SETUP_REPEATS - SETUP_REPEATS // 2)
    problems += workload.check(seed, results)

    latencies = [r.scaled_seconds / r.ops for r in results]
    level, tail, beyond = metrics.tail_percentile(metrics.evenly_spaced(latencies, LATENCY_SAMPLES))
    setup_scaled = [seconds * speed for seconds, speed in setup]
    values = {
        "ops_per_s": _ops_per_s(results),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss,
    }
    speeds = [r.speed for r in results]
    notes = {
        "latency_p50_s": f"median of {len(latencies)} per-op samples, one per call",
        "latency_tail_s": f"p{level:g} of {LATENCY_SAMPLES} samples spread evenly over the calls, {beyond} above it",
        "setup_s": (
            f"median of {len(setup)} fresh interpreters, spread {min(setup_scaled):.4f}..{max(setup_scaled):.4f} s;"
            f" unscaled median {statistics.median(s for s, _ in setup):.4f} s"
        ),
        "ops_per_s": (
            f"{sum(r.ops for r in results)} ops in {len(results)} calls, {sum(r.seconds for r in results):.2f} s;"
            f" unscaled {_ops_per_s(results, scaled=False):.6g} 1/s, speed factor"
            f" median {statistics.median(speeds):.3f}, range {min(speeds):.3f}..{max(speeds):.3f}"
        ),
    }
    metric_out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metric_out, notes, results, problems


def run_traced(workload, seed: int, out_dir: str, seconds: int, spans_path: Path):
    problems = workload.reference_checks(seed, out_dir)
    untraced = loop(workload, seed, out_dir, seconds / 2, TRACE_CALLS)
    tracer = tracing.Tracer()
    tracer.install(navlim)
    try:
        traced = [timed_call(workload, seed, i, out_dir) for i in range(TRACE_CALLS)]
    finally:
        tracer.uninstall()
    problems += [f"not restored after tracing: {name}" for name in tracer.unrestored()]
    problems += [
        f"traced call {i} output differs from the untraced one"
        for i, (a, b) in enumerate(zip(traced, untraced))
        if a.output != b.output
    ]
    problems += workload.check(seed, untraced)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(spans_path)

    summary = tracer.summary()
    values = {}
    for span in TIMED_SPANS + COUNTED_SPANS:
        entry = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in entry.items():
            values[f"{span}.{key}"] = value
    untraced_rate, traced_rate = _ops_per_s(untraced), _ops_per_s(traced)
    values.update(
        {
            "linalg.eigh.n3_sum": tracer.eigh_n3_sum,
            "linalg.eigh.max_n": tracer.eigh_max_n,
            "bounds.inf_share": tracer.bounds_inf / tracer.bounds_total if tracer.bounds_total else 0.0,
            "bounds.count": tracer.bounds_total,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
        }
    )
    missing = [s for s in TIMED_SPANS + COUNTED_SPANS if s not in tracer.wrapped]
    notes = {
        "spans": f"{len(tracer.names)} spans from {TRACE_CALLS} traced calls, written to {spans_path}",
        "bounds.inf_share": f"{tracer.bounds_inf} of {tracer.bounds_total} bounds are +inf",
        "trace.overhead_share": f"ops_per_s {untraced_rate:.6g} untraced ({len(untraced)} calls) vs {traced_rate:.6g} traced",
    }
    if missing:
        notes["unwrapped"] = "no such function in navlim: " + ", ".join(missing)
    metric_out = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    return metric_out, notes, untraced + traced, problems


def run(workload_name: str, seed, seconds: int, trace: bool, root: Path, src: Path) -> int:
    if not Path(navlim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: navlim was imported from {navlim.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        print(f"error: unknown workload {workload_name!r}; one of {list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if seed is None else seed
    out_dir = root / ".bench_out" / f"{workload_name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            spans_path = root / ".bench_out" / "trace" / f"{workload_name}-seed{seed}.jsonl"
            metric_out, notes, results, problems = run_traced(workload, seed, str(out_dir), seconds, spans_path)
        else:
            metric_out, notes, results, problems = run_untraced(workload, seed, str(out_dir), seconds, root, src)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted, failed = _counts(results, problems)

    print(f"workload {workload.name}, seed {seed}, {seconds} s, trace {int(trace)}: {workload.why}")
    machine = metrics.machine(int(os.environ["OPENBLAS_NUM_THREADS"]))
    print("machine " + json.dumps(dict(machine, calibration_reference_s=calibration.REFERENCE_S)))
    for name, entry in metric_out.items():
        note = notes.get(name)
        print(f"  {name:<40} {entry['value']:<22.10g} {entry['unit']:<6} {note or ''}".rstrip())
    print(f"  {'failed_share':<40} {failed / attempted:<22.10g} ratio  {failed} of {attempted} ops")
    for key in ("spans", "unwrapped"):
        if key in notes:
            print(f"  {key}: {notes[key]}")
    if hasattr(workload, "skipped"):
        skipped = workload.skipped(seed)
        print(f"  skipped: {len(skipped)} unobservable scenarios, untimed and unchecked: {skipped}")
    for problem in problems:
        print(f"  MISMATCH {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metric_out}))
    return 0 if correct else 1
