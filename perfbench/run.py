"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mutex-saturation --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least three times) and reports the end-to-end metrics of
``BENCHMARK.json``, with times in reference seconds: the CPU part of
each time is divided by the host's slowness, measured by the fixed loop
of ``calibrate.py`` around every repetition. ``--trace 1`` alternates
untraced and traced repetitions (at least two of each) and reports the
per-layer metrics, including the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The program under test is
imported from ``src/`` of the same checkout; without it the benchmark
exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for UDP trace shards and span dumps (git-ignored).
WORK_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Time spent on the host-speed reference after each repetition, as a
#: share of that repetition's wall time, and at most REF_MAX_S, so that
#: a workload of long repetitions still fits five of them in 30 s.
REF_SHARE = 0.15
REF_MAX_S = 0.3

#: Message types of the Cao-Singhal protocol reported one by one; any
#: other type (piggyback bundles, failure handling) lands in ``other``.
MSG_TYPES = ("request", "reply", "release", "inquire", "fail", "yield",
             "transfer")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro missing")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def _median(values: List[float]) -> float:
    """Median, or 0.0 for no samples (only when every repetition failed)."""
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_determinism(workload, reps, what: str, key) -> List[str]:
    if not workload.deterministic or len(reps) < 2:
        return []
    first = key(reps[0])
    bad = [i for i, rep in enumerate(reps) if key(rep) != first]
    if bad:
        return [f"determinism: {what} of repetitions {bad} differ from the first"]
    return []


def _more(count: int, minimum: int, start: float, walls: List[float],
          seconds: float) -> bool:
    """Whether to start another repetition: until ``minimum`` are done,
    then while the next one (as long as the median so far) still ends
    within ``seconds`` of ``start``."""
    if count < minimum:
        return True
    return time.perf_counter() - start + _median(walls) <= seconds


def _scaled(wall: float, cpu: float, slow: float) -> float:
    """``wall`` seconds, ``cpu`` of them on the CPU, in reference seconds:
    the CPU part is divided by the host's slowness and the waiting part
    (timers, sockets) is kept as it is."""
    cpu = min(cpu, wall)
    return cpu / slow + (wall - cpu)


def measure(workload, seed: int, seconds: float):
    """Untraced repetitions; returns (reps, set-up samples, run times),
    times in reference seconds.

    Extra set-up samples are taken between repetitions, not in one
    burst, so that they see the same host conditions as the runs. The
    reference loop of ``calibrate.py`` is timed before the first
    repetition and after each one, for REF_SHARE of the repetition's wall
    time or REF_MAX_S. A repetition's slowness is the mean of the two
    timings around it; its run time and its set-up samples are scaled by
    it.
    """
    from calibrate import slowdown

    inputs = workload.inputs(seed)
    reps: List = []
    setups: List[float] = []
    runs: List[float] = []
    walls: List[float] = []
    before = slowdown(0.0)
    start = time.perf_counter()
    while _more(len(reps), MIN_REPS, start, walls, seconds):
        t0 = time.perf_counter()
        rep = workload.execute(inputs, seed, WORK_DIR)
        samples = [(rep.setup_s, rep.setup_cpu_s)] if not rep.errors else []
        samples += workload.setup_samples(inputs)
        elapsed = time.perf_counter() - t0
        after = slowdown(min(REF_MAX_S, REF_SHARE * elapsed))
        slow = (before + after) / 2
        before = after
        reps.append(rep)
        runs.append(_scaled(rep.run_s, rep.run_cpu_s, slow))
        setups += [_scaled(wall, cpu, slow) for wall, cpu in samples]
        walls.append(time.perf_counter() - t0)
    return reps, setups, runs


def end_to_end(reps, setups, runs) -> Dict[str, Tuple[float, str]]:
    """Gated metrics; times are in reference seconds (``calibrate.py``)."""
    ok = [(rep, run) for rep, run in zip(reps, runs) if not rep.errors]
    ok = ok or list(zip(reps, runs))
    return {
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ops_per_s": (_median([r.ops / run for r, run in ok if run > 0]),
                      "1/s"),
        "steps_per_op": (_median([r.steps / r.results for r, _ in ok
                                  if r.results]), "count"),
    }


def traced(workload, seed: int, seconds: float):
    """Alternate untraced and traced repetitions; returns
    (untraced reps, traced reps with their tracer snapshots)."""
    from tracer import Tracer

    inputs = workload.inputs(seed)
    tracer = Tracer()
    plain, spans = [], []
    walls: List[float] = []
    start = time.perf_counter()
    while _more(len(spans), MIN_TRACED_REPS, start, walls, seconds):
        t0 = time.perf_counter()
        plain.append(workload.execute(inputs, seed, WORK_DIR))
        tracer.install()
        try:
            t1 = time.perf_counter()
            rep = tracer.root(workload.execute, inputs, seed, WORK_DIR)
            spans.append((rep, time.perf_counter() - t1, _snapshot(tracer)))
            tracer.write_spans(
                WORK_DIR / f"spans-{workload.name}-seed{seed}.bin",
                {"workload": workload.name, "seed": seed},
            )
        finally:
            tracer.uninstall()
        walls.append(time.perf_counter() - t0)
    return plain, spans


def _snapshot(tracer) -> dict:
    by_layer: Dict[str, int] = {}
    for calls, layer in zip(tracer.calls, tracer.entry_layers):
        by_layer[layer] = by_layer.get(layer, 0) + calls
    return {
        "self_s": dict(tracer.self_s),
        "layer_calls": by_layer,
        "calls": dict(zip(tracer.entry_names, tracer.calls)),
        "inclusive": dict(zip(tracer.entry_names, tracer.inclusive)),
        "extra": dict(tracer.extra),
        "spans": len(tracer.span_start),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, plain, spans):
    """Per-layer metrics of ``BENCHMARK.json`` as ``{name: (value,
    unit)}``, plus the unmeasured layers and any determinism errors."""
    from tracer import LAYERS

    rep, _, snap = spans[-1]
    ops = rep.results or 1
    calls = snap["calls"]
    extra = snap["extra"]
    counts = rep.layer_counts
    out: Dict[str, Tuple[float, str]] = {}
    walls = [wall for _, wall, _ in spans]
    unmeasured = [
        layer for layer in workload.layers if snap["layer_calls"].get(layer, 0) == 0
    ]
    for layer in LAYERS:
        self_s = _median([s["self_s"][layer] for _, _, s in spans])
        frac = _median([s["self_s"][layer] / w for (_, w, s) in spans])
        per_op = snap["layer_calls"].get(layer, 0) / ops
        if layer in unmeasured:
            self_s = frac = per_op = -1.0
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.self_frac"] = (frac, "share")
        out[f"{layer}.calls_per_op"] = (per_op, "count")

    pushes = calls.get("EventQueue.push", 0)
    out["sim.event.pushes_per_op"] = (pushes / ops, "count")
    out["sim.event.mean_cohort_size"] = (
        _ratio(extra["cohort_events"], extra["cohorts"]), "count")
    out["sim.event.cancelled_frac"] = (
        _ratio(calls.get("Event.cancel", 0), pushes), "share")
    out["sim.network.sends_per_op"] = (counts.get("net_sent", 0) / ops, "count")
    out["sim.network.fanout_mean"] = (
        _ratio(extra["fanout_dsts"], extra["fanout_calls"]), "count")
    out["sim.network.dropped_frac"] = (
        _ratio(counts.get("net_dropped", 0), counts.get("net_sent", 0)), "share")
    data = counts.get("tr_data", 0)
    out["sim.transport.segments_per_op"] = (
        (data + counts.get("tr_retx", 0) + counts.get("tr_acks", 0)) / ops,
        "count")
    out["sim.transport.retransmit_frac"] = (
        _ratio(counts.get("tr_retx", 0), data), "share")
    out["sim.transport.dedup_frac"] = (
        _ratio(counts.get("tr_dedup", 0),
               counts.get("tr_dedup", 0) + counts.get("tr_delivered", 0)),
        "share")
    handled = calls.get("CaoSinghalSite.on_message", 0)
    out["core.handled_per_op"] = (handled / ops, "count")
    seen = 0
    for name in MSG_TYPES:
        n = extra.get(f"msg.{name}", 0)
        seen += n
        out[f"core.msgs.{name}_per_op"] = (n / ops, "count")
    out["core.msgs.other_per_op"] = ((handled - seen) / ops, "count")
    acquires = counts.get("acquires", 0)
    out["locks.quorum_rounds_per_acquire"] = (
        _ratio(counts.get("quorum_rounds", 0), acquires), "count")
    out["locks.lease_hit_frac"] = (
        _ratio(counts.get("lease_hits", 0), acquires), "share")
    out["locks.batch_mean"] = (
        _ratio(counts.get("grants", 0), counts.get("batches", 0)), "count")
    out["locks.retries_per_acquire"] = (
        _ratio(counts.get("retries", 0), acquires), "count")
    frames = calls.get("encode_frame", 0)
    out["net.wire.frames_per_cs"] = (frames / ops, "count")
    out["net.wire.bytes_per_cs"] = (extra["frame_bytes"] / ops, "B")
    out["net.trace.records_per_cs"] = (
        calls.get("JsonlTraceWriter.record", 0) / ops, "count")
    out["obs.monitor.replay_s"] = (_median(
        [s["inclusive"].get("ProtocolMonitor.replay", 0.0) for _, _, s in spans]),
        "s")
    states = counts.get("states", 0)
    out["explore.transitions_per_state"] = (
        _ratio(counts.get("transitions", 0), states), "count")
    out["explore.dedup_hit_frac"] = (
        _ratio(counts.get("dedup_hits", 0),
               counts.get("dedup_hits", 0) + states), "share")
    out["explore.sleep_pruned_frac"] = (
        _ratio(counts.get("sleep_pruned", 0),
               counts.get("sleep_pruned", 0) + counts.get("transitions", 0)),
        "share")
    check_entries = [name for name in calls if name.startswith("check_")]
    check_entries.append("LockService.verify")
    out["verify.check_s"] = (_median([
        sum(s["inclusive"].get(name, 0.0) for name in check_entries)
        for _, _, s in spans]), "s")
    out["metrics.summarize_s"] = (_median(
        [s["inclusive"].get("summarize", 0.0) for _, _, s in spans]), "s")

    untraced_wall = _median([r.wall_s for r in plain])
    traced_wall = _median(walls)
    accounted = _median([sum(s["self_s"].values()) / w for (_, w, s) in spans])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_frac"] = (
        _ratio(traced_wall - untraced_wall, untraced_wall), "share")
    out["trace.accounted_frac"] = (accounted, "share")
    out["trace.spans_per_op"] = (snap["spans"] / ops, "count")
    out["trace.unmeasured_layers"] = (float(len(unmeasured)), "count")

    errors = _check_determinism(
        workload, spans, "per-layer operation counts",
        lambda item: (item[2]["calls"], item[2]["extra"]),
    )
    return out, unmeasured, errors


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, wait_percentiles

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    _import_program()
    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    if args.trace:
        plain, spans = traced(workload, args.seed, args.seconds)
        reps = plain + [rep for rep, _, _ in spans]
        metrics, unmeasured, errors = layer_metrics(workload, plain, spans)
        for layer in unmeasured:
            print(f"unmeasured layer: {layer} (no calls reached its entry "
                  "points; reported as -1)", file=sys.stderr)
    else:
        reps, setups, runs = measure(workload, args.seed, args.seconds)
        metrics = end_to_end(reps, setups, runs)
        errors = []

    for i, rep in enumerate(reps):
        errors += [f"repetition {i}: {e}" for e in rep.errors]
    errors += _check_determinism(
        workload, reps, "simulated-time metrics and counts",
        lambda rep: rep.fingerprint)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"repetitions {len(reps)}  trace {args.trace}")
    if not args.trace:
        ok = [rep for rep in reps if not rep.errors] or reps
        for name in ok[0].report:
            values = [rep.report[name][0] for rep in ok]
            _, unit, n = ok[0].report[name]
            extra = f"  n={n}" if n is not None else ""
            print(f"  {name:<22} {_fmt(_median(values)):>14} {unit:<6}"
                  f" (median of {len(values)} repetitions{extra})")
        # Repetitions of a deterministic workload have identical waits;
        # the others are pooled so that the p99 has enough samples.
        pooled = ok[:1] if workload.deterministic else ok
        waits = [w for rep in pooled for w in rep.waits]
        if waits:
            unit = ok[0].wait_unit
            for q, value in zip(("p50", "p99"), wait_percentiles(waits)):
                print(f"  {'wait_' + q + '_' + unit.lower():<22} {_fmt(value):>14}"
                      f" {unit:<6} (pooled over {len(pooled)} repetitions"
                      f"  n={len(waits)})")
        raw = [r.ops / r.run_s for r in ok if r.run_s > 0]
        print(f"  {'ops_per_wall_s':<22} {_fmt(_median(raw)):>14} {'1/s':<6}"
              f" (median of {len(raw)} repetitions, not scaled)")
        slows = [r.run_s / run for r, run in zip(reps, runs)]
        print(f"  run time, wall over reference seconds: median "
              f"{_fmt(_median(slows))}, range {_fmt(min(slows))} to "
              f"{_fmt(max(slows))}")
        print(f"  set-up samples: {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
