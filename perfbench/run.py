"""Wall-clock benchmark of the HAWQ reproduction engine.

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root. One workload per process, single
threaded. ``--trace 0`` times the engine from outside and prints the
end-to-end metrics; ``--trace 1`` is the separate traced run that
prints the per-layer metrics. Either way the answer checks run, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it are a readable report and a ``report`` JSON line
carrying every metric with its unit and sample count, per-class
latencies and failures by error class. The exit code is 1 when an
answer check fails and 2 when the engine sources are missing.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: A class's p90 is reported only from this many samples up, so that
#: at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100
NAMES = ("tpch_power", "tpch_cold", "streams8", "etl_refresh")

# --------------------------------------------------------------- helpers
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _p90(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _metric(value: float, unit: str, samples: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "samples": samples}


def latency_report(samples, speed_at) -> Dict[str, object]:
    """End-to-end latency metrics and per-class percentiles, in wall
    seconds times the host speed ``speed_at`` gives for each sample's
    middle."""
    by_template: Dict[str, List[float]] = {}
    by_class: Dict[str, List[float]] = {}
    errors: Dict[str, Counter] = {}
    for sample in samples:
        if sample.errors:
            errors.setdefault(sample.cls, Counter()).update(sample.errors)
            continue
        seconds = sample.seconds * speed_at(sample.end - sample.seconds / 2)
        by_template.setdefault(sample.template, []).append(seconds)
        by_class.setdefault(sample.cls, []).append(seconds)
    medians = [statistics.median(v) for _t, v in sorted(by_template.items())]
    timed = sum(len(v) for v in by_template.values())
    metrics = {
        "suite_s": _metric(sum(medians), "s", timed),
        "query_geomean_ms": _metric(
            math.exp(statistics.fmean(math.log(m * 1e3) for m in medians)),
            "ms",
            timed,
        ),
    }
    classes = {}
    for cls in sorted(set(by_class) | set(errors)):
        values = by_class.get(cls, [])
        entry: Dict[str, object] = {"samples": len(values)}
        if values:
            entry[f"{cls}_p50_ms"] = _metric(
                statistics.median(values) * 1e3, "ms", len(values)
            )
        if len(values) >= P90_MIN_SAMPLES:
            entry[f"{cls}_p90_ms"] = _metric(_p90(values) * 1e3, "ms", len(values))
        if cls in errors:
            entry["errors"] = dict(sorted(errors[cls].items()))
        classes[cls] = entry
    return {"metrics": metrics, "classes": classes}


def _counters(engine) -> Dict[str, float]:
    snap = engine.metrics.snapshot()
    names = ("cache_hits", "cache_misses", "bytes_read", "motion_bytes",
             "rpc_messages", "wal_records")
    out = {name: snap.total(name) for name in names}
    out["kernel_cache_entries"] = len(engine.kernel_cache)
    return out


# ------------------------------------------------------------ one workload
def run_phase(workload, state, plan, now, tracer=None):
    """Run the measured phase; with a tracer, alternate each unit key
    between untraced and traced runs so both halves see the same work
    and the same state growth."""
    from workloads import Recorder

    recorder = Recorder(now, tracer)
    samples = []
    seen: Counter = Counter()
    split = {False: [0, 0.0], True: [0, 0.0]}  # statements, seconds
    spans = []  # each unit's (start, end)
    gc.collect()
    start = now()
    for unit in plan:
        traced = False
        if tracer is not None:
            offset = zlib.crc32(unit.key.encode()) & 1
            traced = (seen[unit.key] + offset) % 2 == 1
            seen[unit.key] += 1
        unit_start = now()
        if traced:
            tracer.install()
            try:
                got = tracer.root(lambda: workload.run_unit(state, unit, recorder))
            finally:
                tracer.uninstall()
        else:
            got = workload.run_unit(state, unit, recorder)
        split[traced][0] += sum(s.statements for s in got)
        spans.append((unit_start, now()))
        split[traced][1] += spans[-1][1] - unit_start
        samples.extend(got)
    elapsed = now() - start
    return samples, recorder.executed, elapsed, split, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostclock import HostClock
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    plan = workload.plan(seed, workload.units_for(seconds, trace))
    # The traced run reports shares and counts, not end-to-end times, so
    # it runs without the speed probe and its timer interrupts.
    clock = None if trace else HostClock()
    now = time.perf_counter if trace else clock.now
    setups = []  # (wall seconds, host speed)
    state = None
    if clock is not None:
        clock.start()
    try:
        for _ in range(1 if trace else workload.setup_repeats):
            state = None
            gc.collect()
            mark = clock.mark() if clock else 0
            start = now()
            state = workload.setup()
            setups.append((now() - start, clock.speed(mark) if clock else 1.0))
        engine = state.engine
        before = _counters(engine)
        tracer = Tracer() if trace else None
        mark = clock.mark() if clock else 0
        samples, executed, elapsed, split, spans = run_phase(
            workload, state, plan, now, tracer
        )
        speed = clock.speed(mark) if clock else 1.0
        speed_at = clock.speed_at if clock else (lambda _t: 1.0)
    finally:
        if clock is not None:
            clock.stop()
    after = _counters(engine)
    peak = _peak_rss_mb()
    problems = workload.check(state, executed)

    attempted = sum(s.statements for s in samples)
    failed = sum(len(s.errors) for s in samples)
    report = latency_report(samples, speed_at)
    raw = latency_report(samples, lambda _t: 1.0)["metrics"]
    ok = attempted - failed
    # Each unit's time at the host speed around it; the gaps between
    # units are the benchmark's own bookkeeping.
    busy = sum((end - start) * speed_at((start + end) / 2) for start, end in spans)
    metrics = {
        "setup_s": _metric(
            statistics.median(s * v for s, v in setups), "s", len(setups)
        ),
        "throughput_qps": _metric(ok / busy, "1/s", ok),
        **report["metrics"],
        "peak_rss_mb": _metric(peak, "MB", 1),
    }
    wall = {
        "setup_s": _metric(
            statistics.median(s for s, _v in setups), "s", len(setups)
        ),
        "throughput_qps": _metric(ok / elapsed, "1/s", ok),
        **raw,
    }
    extra = {"error_rate": _metric(failed / attempted, "ratio", attempted)}
    for entry in report["classes"].values():
        extra.update({k: v for k, v in entry.items() if k.endswith("_ms")})
    out = {
        "workload": name,
        "seed": seed,
        "units": len(plan),
        "measured_s": elapsed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "classes": report["classes"],
        "end_to_end": metrics,
        "wall": wall,
        "host_speed": {
            "setup": [v for _s, v in setups],
            "measured_phase": speed,
        },
        "other": extra,
    }
    if not trace:
        return out

    delta = {k: after[k] - before[k] for k in after}
    totals, traced_total = tracer.layer_totals()
    layer: Dict[str, dict] = {}
    for name_, entry in totals.items():
        layer[f"{name_}.self_s"] = _metric(entry["self_s"], "s", entry["calls"])
        layer[f"{name_}.calls"] = _metric(entry["calls"], "count", 1)
        layer[f"{name_}.share"] = _metric(entry["share"], "ratio", entry["calls"])
    lookups = delta["cache_hits"] + delta["cache_misses"]
    waits = [s.queue_wait_sim_s for s in samples]
    (u_stmts, u_secs), (t_stmts, t_secs) = split[False], split[True]
    layer.update({
        "storage.cache_hit_ratio": _metric(
            delta["cache_hits"] / lookups if lookups else 0.0, "ratio", lookups
        ),
        "catalog.visible_ratio": _metric(
            tracer.catalog_visible / tracer.catalog_versions
            if tracer.catalog_versions else 0.0,
            "ratio",
            tracer.catalog_versions,
        ),
        "executor.kernel_cache_entries": _metric(
            after["kernel_cache_entries"], "count", 1
        ),
        "executor.kernel_cache_growth": _metric(
            delta["kernel_cache_entries"] / attempted, "count/stmt", attempted
        ),
        "storage.bytes_read_per_stmt": _metric(
            delta["bytes_read"] / attempted, "B/stmt", attempted
        ),
        "interconnect.motion_bytes_per_stmt": _metric(
            delta["motion_bytes"] / attempted, "B/stmt", attempted
        ),
        "cluster.rpc.messages_per_stmt": _metric(
            delta["rpc_messages"] / attempted, "count/stmt", attempted
        ),
        "txn.wal_records_per_stmt": _metric(
            delta["wal_records"] / attempted, "count/stmt", attempted
        ),
        "cluster.resqueue.queue_wait_sim_s": _metric(
            statistics.fmean(waits), "sim_s", len(waits)
        ),
        "trace_overhead": _metric(
            (t_stmts / t_secs) / (u_stmts / u_secs) if t_secs and u_secs else 0.0,
            "ratio",
            t_stmts,
        ),
    })
    out["per_layer"] = layer
    out["traced_total_s"] = traced_total
    out["layers"] = list(LAYERS)
    span_path = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv")
    tracer.write(span_path)
    out["spans_file"] = os.path.relpath(span_path, ROOT)
    out["spans"] = len(tracer.spans)
    return out


# ------------------------------------------------------------------ output
def _fmt(metric: dict) -> str:
    return f"{metric['value']:.6g} {metric['unit']} (n={metric['samples']})"


def print_report(result: dict, trace: bool) -> dict:
    """Readable lines plus the ``report`` JSON line; returns the final
    contract object."""
    print(
        f"workload {result['workload']} seed {result['seed']}: "
        f"{result['units']} units, {result['attempted']} statements, "
        f"{result['failed']} failed, measured {result['measured_s']:.2f} s"
    )
    section = result["per_layer"] if trace else result["end_to_end"]
    for name, metric in section.items():
        print(f"  {name:40s} {_fmt(metric)}")
    if not trace:
        speed = result["host_speed"]
        print(
            f"  host speed: set-ups {', '.join(f'{v:.3f}' for v in speed['setup'])}"
            f"; measured phase {speed['measured_phase']:.3f}"
        )
        for name, metric in result["wall"].items():
            print(f"  {name + ' (raw wall)':40s} {_fmt(metric)}")
        for name, metric in result["other"].items():
            print(f"  {name:40s} {_fmt(metric)}")
    for cls, entry in result["classes"].items():
        if "errors" in entry:
            print(f"  failures in class {cls}: {entry['errors']}")
    for problem in result["problems"][:20]:
        print(f"  ANSWER CHECK FAILED: {problem}")
    print(json.dumps({"report": result}, sort_keys=True))
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in section.items()
        },
    }


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    results = {}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        report = [json.loads(l)["report"] for l in lines if l.startswith('{"report"')]
        results[name] = report[0] if report else None
        code = max(code, proc.returncode)
    os.makedirs(OUT, exist_ok=True)
    summary = os.path.join(OUT, f"summary-trace{args.trace}-seed{args.seed}.json")
    with open(summary, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(summary, ROOT)}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    final = print_report(result, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
