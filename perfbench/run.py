"""Wall-clock benchmark of the engine: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats set-up plus timed phase a few times with tracing
off, times every call into the program and prints the end-to-end
metrics as medians over the repetitions.  ``--trace 1`` runs a fixed
plan three times, the middle time with every layer's entry points
wrapped (see ``layers.py``), checks that all three computed exactly the
same totals, and prints the per-layer metrics.

Every answer is checked against an oracle made from the seed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import speed

ROOT = Path(__file__).resolve().parent.parent
#: Where the traced run writes its sampled spans (inside the checkout).
SPAN_DIR = ROOT / ".perfbench"

clock = time.perf_counter_ns
#: Windows with fewer calls (a compaction can fill one) give no median.
MIN_WINDOW_CALLS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "ok_frac": "frac",
    "rss_peak_mib": "MiB",
}

#: Entry points a workload must not call: in its timed phase ("timed")
#: or anywhere in the run ("all").  These are the zeros the layer map
#: predicts; a call means the workload does not isolate what it claims.
PREDICTED_ZERO: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "lookup": {"timed": (
        "Compactor.run", "LSMTree.flush", "LSMTree.write",
        "WriteAheadLog.append_batch", "Manifest.append",
        "LevelModelManager.rebuild", "ClusteredIndex.build",
        "Tracer.begin", "Tracer.on_charge", "Histogram.record",
        "Gateway.run", "ReplicaGroup.get")},
    "ingest": {"all": (
        "Tracer.begin", "Tracer.on_charge", "Tracer.on_count",
        "Histogram.record", "Gateway.run", "ShardedDB.shard_for",
        "ReplicaGroup.put", "CachedBlockDevice.pread_cached")},
    "serve": {"timed": (
        "LSMTree.multi_get", "LSMTree.reopen", "ClusteredIndex.build")},
}

#: Entry points a workload must call in its timed phase.
PREDICTED_BUSY: Dict[str, Tuple[str, ...]] = {
    "lookup": ("LSMTree.get", "LSMTree.multi_get", "LSMTree.scan",
               "Table.read_entries", "BloomFilter.may_contain",
               "ClusteredIndex.lookup", "CachedBlockDevice.pread_cached"),
    "ingest": ("LSMTree.write", "WriteAheadLog.append_batch",
               "LSMTree.flush", "Compactor.run", "LevelModelManager.rebuild",
               "Manifest.append", "ModelStore.save", "LSMTree.get",
               "sstable.crc32c"),
    "serve": ("Gateway.run", "ShardedDB.shard_for", "ReplicaGroup.get",
              "ReplicaGroup.put", "LSMTree.write", "Tracer.begin",
              "Histogram.record", "CachedBlockDevice.pread_cached"),
}


def import_program():
    """Put the checkout's ``src`` first on the path and load the workloads."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import layers
    import workloads
    return layers, workloads


def quantile(values: List[int], q: int) -> float:
    """The q-th percentile, interpolated (``statistics.quantiles``)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe_calls(outcome) -> None:
    for kind, values in sorted(outcome.kind_ns.items()):
        if len(values) > 1:
            print(f"  {kind:12s} n={len(values):7d} "
                  f"p50={quantile(values, 50) / 1e3:10.1f} us "
                  f"p99={quantile(values, 99) / 1e3:10.1f} us")


def run_untraced(wl_module, workload, seconds: int) -> Dict[str, object]:
    """Repeat set-up plus timed phase with tracing off; medians over repeats.

    A time-bounded workload gives each repetition an equal share of
    ``seconds``; a fixed-work workload runs its whole plan every time,
    so each repetition must also end with exactly the same totals.  The
    after-run check (``finish``) runs once, after the last repetition.
    """
    share_ns = seconds * 1_000_000_000 // workload.repeats
    setups: List[int] = []
    pace: List[int] = []
    outcomes = []
    setup_prints, run_prints = [], []
    setup_ok = True
    for number in range(workload.repeats):
        gc.collect()
        pace += speed.sample()
        start = clock()
        handle = workload.setup()
        setups.append(clock() - start)
        pace += speed.sample()
        setup_ok &= workload.check_setup(handle)
        stats_list = workload.stats_list(handle)
        setup_prints.append(wl_module.fingerprint(stats_list))
        outcome = workload.run(handle, clock() + share_ns)
        run_prints.append(wl_module.fingerprint(stats_list))
        if number == workload.repeats - 1:
            workload.finish(handle, outcome)
        workload.release(handle)
        outcomes.append(outcome)
        pace += [ns for _, ns in outcome.pace]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    repeat_ok = all(p == setup_prints[0] for p in setup_prints)
    per_repeat = [outcome.windows() for outcome in outcomes]
    windows = [w for repeat in per_repeat for w in repeat]
    if workload.fixed_work:
        repeat_ok &= all(p == run_prints[0] for p in run_prints)
        # Windows of fixed work differ (some hold a compaction), so the
        # unit of throughput is a whole repetition.
        units = [([ns for calls, _ in repeat for ns in calls], outcome.ops)
                 for repeat, outcome in zip(per_repeat, outcomes)]
    else:
        units = windows
    pooled = [ns for calls, _ in windows for ns in calls]
    # A set-up is one long call, so it is rescaled by the machine's speed
    # over the whole run rather than by samples around it.
    run_slowdown = speed.slowdown(pace)
    print(f"{len(units)} units; machine slowdown {run_slowdown:.3f}; "
          f"raw set-ups: {[round(ns / 1e9, 3) for ns in setups]} s; "
          f"repeats identical: {repeat_ok}; set-up checked: {setup_ok}")
    for number, outcome in enumerate(outcomes):
        print(f"repeat {number}: machine slowdown {outcome.slowdown():.3f}; "
              f"raw call times:")
        describe_calls(outcome)
    ops = sum(outcome.ops for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    values = {
        "setup_s": statistics.median(setups) / run_slowdown / 1e9,
        "ops_per_s": statistics.median(
            u_ops / (sum(calls) / 1e9) for calls, u_ops in units),
        "call_p50_us": statistics.median(
            quantile(calls, 50) for calls, _ in windows
            if len(calls) >= MIN_WINDOW_CALLS) / 1e3,
        "call_p99_us": quantile(pooled, 99) / 1e3,
        "ok_frac": (ops - failed) / ops,
        "rss_peak_mib": rss_mib,
    }
    return {
        "correct": failed == 0 and repeat_ok and setup_ok,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in values.items()},
    }


class Pass(NamedTuple):
    """What one set-up plus fixed plan computed, and how long it took."""

    wall_ns: int
    outcome: object
    counts: Dict[str, Tuple[float, str]]
    fingerprint: list
    setup_ok: bool
    timed_calls: Dict[str, int]


def one_pass(wl_module, workload, tracer) -> Pass:
    """Set up, run the fixed plan and finish."""
    gc.collect()
    start = clock()
    handle = workload.setup()
    setup_ok = workload.check_setup(handle)
    stats_list = workload.stats_list(handle)
    before = wl_module.sum_counters(stats_list)
    stages_before = wl_module.sum_stages(stats_list)
    calls_before = dict(tracer.calls) if tracer is not None else {}
    outcome = workload.run(handle, None)
    timed_calls = ({name: calls - calls_before[name]
                    for name, calls in tracer.calls.items()}
                   if tracer is not None else {})
    after = wl_module.sum_counters(stats_list)
    stages_after = wl_module.sum_stages(stats_list)
    workload.finish(handle, outcome)
    wall = clock() - start
    counts = wl_module.layer_counts(handle, outcome, before, after,
                                    stages_before, stages_after)
    result = Pass(wall, outcome, counts, wl_module.fingerprint(stats_list),
                  setup_ok, timed_calls)
    workload.release(handle)
    return result


def check_coverage(name: str, total: Dict[str, int],
                   timed: Dict[str, int]) -> List[str]:
    """The predicted zeros and non-zeros that the traced run broke."""
    broken = []
    for scope, entries in PREDICTED_ZERO[name].items():
        calls = timed if scope == "timed" else total
        broken += [f"{entry} called {calls[entry]}x ({scope})"
                   for entry in entries if calls[entry]]
    broken += [f"{entry} never called (timed)"
               for entry in PREDICTED_BUSY[name] if not timed[entry]]
    return broken


def write_spans(tracer, workload_name: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload_name}-{seed}.jsonl"
    with path.open("w") as sink:
        for op, entry, depth, start, duration in tracer.spans:
            sink.write(json.dumps({"op": op, "span": entry, "depth": depth,
                                   "start_ns": start,
                                   "duration_ns": duration}) + "\n")
    return path


def run_traced(layers, wl_module, workload, seed: int) -> Dict[str, object]:
    """The fixed plan untraced, traced, and untraced again.

    The first pass also warms the process up (it runs measurably slower
    than later ones), so the overhead is taken against the last pass.
    """
    first = one_pass(wl_module, workload, None)
    with layers.LayerTracer() as tracer:
        traced = one_pass(wl_module, workload, tracer)
    last = one_pass(wl_module, workload, None)
    passes = (first, traced, last)
    pure = all(p.counts == traced.counts
               and p.fingerprint == traced.fingerprint for p in passes)
    broken = check_coverage(workload.name, tracer.calls, traced.timed_calls)
    wall = traced.wall_ns

    print(f"traced wall {wall / 1e9:.3f} s, untraced "
          f"{first.wall_ns / 1e9:.3f} s and {last.wall_ns / 1e9:.3f} s; "
          f"all totals identical: {pure}")
    describe_calls(traced.outcome)
    print("coverage (calls: whole run / timed phase):")
    for entry in sorted(tracer.calls):
        print(f"  {entry:34s} {tracer.calls[entry]:9d} "
              f"{traced.timed_calls[entry]:9d}")
    for problem in broken:
        print(f"coverage prediction broken: {problem}")
    print(f"spans: {write_spans(tracer, workload.name, seed)}")

    self_ns = tracer.group_self_ns()
    values: Dict[str, Tuple[float, str]] = {}
    for group in layers.GROUPS:
        values[f"{group}_self_frac"] = (self_ns[group] / wall, "frac")
    values.update(traced.counts)
    # Both wall times rescaled by the machine's speed during the pass.
    values["trace.overhead_frac"] = (
        (wall / traced.outcome.slowdown())
        / (last.wall_ns / last.outcome.slowdown()) - 1.0, "frac")
    values["trace.unattributed_frac"] = (
        (wall - sum(self_ns.values())) / wall, "frac")
    values["trace.wall_s"] = (wall / 1e9, "s")
    failed = sum(p.outcome.failed for p in passes)
    return {
        "correct": (failed == 0 and pure and not broken
                    and all(p.setup_ok for p in passes)),
        "attempted": sum(p.outcome.ops for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    layers, wl_module = import_program()
    if args.workload not in wl_module.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl_module.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workload = wl_module.WORKLOADS[args.workload](
        args.seed, args.seconds, traced=bool(args.trace))
    print(f"workload {workload.name} seed {args.seed}: {workload.sizes()}")
    if args.trace:
        result = run_traced(layers, wl_module, workload, args.seed)
    else:
        result = run_untraced(wl_module, workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
