#!/usr/bin/env python3
"""Throughput and memory regression gate for the engine hot path.

Runs `micro_engine_throughput` (best of N short runs), reads its JSON
report, and fails when `hot_path.steps_per_sec` lands below the checked-in
floor in tools/bench_floor.json, when a scaling-ladder point's
node_steps_per_sec falls below its floor, or when a ladder point's
rss_bytes_per_node, build_heap_bytes_per_node,
record_heap_bytes_per_node_row or decision_bytes_per_decision rises above
its ceiling.

The floor is deliberately far below the recorded baseline in
BENCH_engine.json: CI runners, sanitizer overhead, and shared developer
machines differ from the benchmarking host by integer factors, and this
gate exists to catch *structural* regressions — a de-vectorized RC batch,
an accidentally quadratic engine loop, per-step allocation — not 20 %%
scheduling noise. Raise the floor only after the recorded baseline itself
moves up by more than the gap.

Single-core runners: when the bench report says parallelism_available is
false, the floor is multiplied by single_core_floor_scale from the floor
file (a scale of 0 skips the gate) — the recorded floor assumes worker
parallelism that a one-hardware-thread machine cannot provide.

Memory: rss_bytes_per_node is the resident growth of building one ladder
point's rig (cluster plus controllers) divided by its node count. The
ceilings sit ~25 % above the measured values, so allocator jitter passes
and a structural regression (a per-node object graph that grows by
kilobytes) fails. RSS grows by whole pages, so at small points it jumps
between readings; build_heap_bytes_per_node is the mallinfo2() in-use heap
the same rig build adds per node, exact to the byte, and its ceilings sit
~20 % above it, so a per-node heap object of a few hundred bytes fails at
every point. record_heap_bytes_per_node_row is the heap a ladder
point's run keeps, with its result alive, per node and recorded row; its
ceilings sit ~25 % above one copy of the series (8 fields x 8 B plus the
per-series overhead), so a second copy of the run record fails.
decision_bytes_per_decision is what the bank's decision logs hold
(DecisionLog::memory_bytes) per recorded fan retarget or tDVFS move; its
ceilings sit ~25 % above the chunked 8-byte records and their time runs,
so a record that carries its own time again, or a per-technique event
vector that grows by doubling, fails. Memory does not depend on runner
speed, so no single-core scale applies; the best (lowest) reading across
runs is judged.

Usage:
    tools/bench_guard.py <path-to-micro_engine_throughput> [options]

Exit status: 0 when the best run clears the floor, 1 otherwise.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile


def run_once(bench, horizon, max_scale, timeout_s):
    """One bench invocation; returns the parsed JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "bench.json"
        cmd = [
            str(bench),
            "--horizon", str(horizon),
            # The guard ladder stops at --ladder-scale: enough points to gate
            # the fleet-scale falloff without the full 100k build each run.
            "--max-scale", str(max_scale),
            "--sweep-points", "2",
            "--out", str(out),
        ]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=timeout_s)
        return json.loads(out.read_text())


def check_ceilings(floor_doc, key, readings, unit, hint):
    """Per-ladder-point memory ceilings, read from floor_doc[key].

    Prints one verdict line per gated point; returns False if any point
    exceeds its ceiling.
    """
    ceilings = {int(k): float(v) for k, v in floor_doc.get(key, {}).items()}
    heavy_points = []
    for nodes in sorted(ceilings):
        if nodes not in readings:
            continue  # above --ladder-scale in this guard run
        got = readings[nodes]
        verdict = "PASS" if got <= ceilings[nodes] else "FAIL"
        print(f"bench_guard: ladder {nodes:>6} nodes: {got:,.0f} {unit} "
              f"vs ceiling {ceilings[nodes]:,.0f} -> {verdict}")
        if verdict == "FAIL":
            heavy_points.append(nodes)
    if heavy_points:
        print(f"bench_guard: {unit} grew past its ceiling at {heavy_points} "
              f"nodes; {hint}", file=sys.stderr)
    return not heavy_points


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", help="path to the micro_engine_throughput binary")
    parser.add_argument("--floor-file",
                        default=str(pathlib.Path(__file__).with_name("bench_floor.json")),
                        help="JSON file holding hot_path_steps_per_sec_floor")
    parser.add_argument("--floor", type=float, default=None,
                        help="override the floor (steps/sec) instead of reading the file")
    parser.add_argument("--runs", type=int, default=3,
                        help="bench invocations; the best one is judged (default 3)")
    parser.add_argument("--horizon", type=float, default=60.0,
                        help="simulated seconds per run (default 60)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-run wall clock limit in seconds")
    parser.add_argument("--ladder-scale", type=int, default=2048,
                        help="largest scaling-ladder point to run and gate "
                             "(default 2048; floors for absent points are skipped)")
    args = parser.parse_args()

    bench = pathlib.Path(args.bench)
    if not bench.exists():
        print(f"bench_guard: bench binary not found: {bench}", file=sys.stderr)
        return 1

    floor_doc = json.loads(pathlib.Path(args.floor_file).read_text())
    if args.floor is not None:
        floor = args.floor
    else:
        floor = float(floor_doc["hot_path_steps_per_sec_floor"])

    best = 0.0
    best_node_steps = 0.0
    ladder_best = {}  # node count -> best node_steps_per_sec across runs
    ladder_rss = {}  # node count -> lowest rss_bytes_per_node across runs
    ladder_build_heap = {}  # node count -> lowest build_heap_bytes_per_node
    ladder_record = {}  # node count -> lowest record_heap_bytes_per_node_row
    ladder_decision = {}  # node count -> lowest decision_bytes_per_decision
    parallelism_available = True
    for i in range(max(1, args.runs)):
        report = run_once(bench, args.horizon, max_scale=args.ladder_scale,
                          timeout_s=args.timeout)
        sps = float(report["hot_path"]["steps_per_sec"])
        nsps = float(report["hot_path"].get("node_steps_per_sec", 0.0))
        parallelism_available = bool(report.get("parallelism_available", True))
        print(f"bench_guard: run {i + 1}: {sps:,.0f} steps/s "
              f"({nsps:,.0f} node-steps/s)")
        for point in report.get("scaling", []):
            nodes = int(point["nodes"])
            point_nsps = float(point.get("node_steps_per_sec", 0.0))
            ladder_best[nodes] = max(ladder_best.get(nodes, 0.0), point_nsps)
            point_rss = float(point.get("rss_bytes_per_node", 0.0))
            ladder_rss[nodes] = min(ladder_rss.get(nodes, point_rss), point_rss)
            point_build = float(point.get("build_heap_bytes_per_node", 0.0))
            ladder_build_heap[nodes] = min(ladder_build_heap.get(nodes, point_build),
                                           point_build)
            point_record = float(point.get("record_heap_bytes_per_node_row", 0.0))
            ladder_record[nodes] = min(ladder_record.get(nodes, point_record), point_record)
            point_decision = float(point.get("decision_bytes_per_decision", 0.0))
            ladder_decision[nodes] = min(ladder_decision.get(nodes, point_decision),
                                         point_decision)
        if sps > best:
            best, best_node_steps = sps, nsps

    # Judged first and on every runner: memory does not depend on its speed.
    rss_ok = check_ceilings(
        floor_doc, "scaling_rss_bytes_per_node_ceilings", ladder_rss,
        "rss bytes/node",
        "look for a per-node object (sysfs tree, controller) that gained heap state.")
    build_heap_ok = check_ceilings(
        floor_doc, "scaling_build_heap_bytes_per_node_ceilings", ladder_build_heap,
        "build heap bytes/node",
        "look for a per-node object (sysfs tree, BMC, controller) that gained heap state.")
    record_ok = check_ceilings(
        floor_doc, "scaling_record_heap_bytes_per_node_row_ceilings", ladder_record,
        "record heap bytes/node-row",
        "look for a second copy of the recorded series (MetricsRecorder, RunResult).")
    decision_ok = check_ceilings(
        floor_doc, "scaling_decision_bytes_per_decision_ceilings", ladder_decision,
        "decision-log bytes/decision",
        "look for a wider DecisionRecord or a per-technique event vector beside the "
        "family's DecisionLog.")
    memory_ok = rss_ok and build_heap_ok and record_ok and decision_ok

    if not parallelism_available:
        # The floor was recorded on a multi-core host where the sharded
        # engine's workers actually run in parallel; on a single-hardware-
        # thread runner the same workload is structurally slower and the
        # unscaled floor would flag healthy builds. Scale it by the factor
        # checked in next to the floor (0 disables the gate entirely here).
        scale = float(floor_doc.get("single_core_floor_scale", 0.0))
        scaled = floor * scale
        print(f"bench_guard: runner reports parallelism_available=false "
              f"(single hardware thread); scaling floor {floor:,.0f} -> "
              f"{scaled:,.0f} (x{scale})")
        floor = scaled
        if floor <= 0.0:
            print("bench_guard: floor disabled on this runner (scale 0); "
                  "throughput recorded but not gated")
            print(f"bench_guard: best {best:,.0f} steps/s -> PASS (ungated)")
            return 0 if memory_ok else 1

    verdict = "PASS" if best >= floor else "FAIL"
    print(f"bench_guard: best {best:,.0f} steps/s vs floor {floor:,.0f} -> {verdict}")
    if best < floor:
        print("bench_guard: hot-path throughput regressed below the checked-in "
              "floor; see tools/bench_guard.py for what this gate is meant to "
              "catch before adjusting the floor.", file=sys.stderr)
        return 1

    # Per-ladder-point floors: node_steps_per_sec at each fleet size must not
    # collapse. This is what catches a reintroduced per-node dispatch path or
    # a de-vectorized RC batch — regressions the 16-node hot path never sees.
    ladder_floors = {int(k): float(v) for k, v in
                     floor_doc.get("scaling_node_steps_per_sec_floors", {}).items()}
    ladder_scale = 1.0
    if not parallelism_available:
        ladder_scale = float(floor_doc.get("single_core_ladder_floor_scale", 1.0))
    failed_points = []
    for nodes in sorted(ladder_floors):
        if nodes not in ladder_best:
            continue  # above --ladder-scale in this guard run
        point_floor = ladder_floors[nodes] * ladder_scale
        got = ladder_best[nodes]
        point_verdict = "PASS" if got >= point_floor or point_floor <= 0.0 else "FAIL"
        print(f"bench_guard: ladder {nodes:>6} nodes: {got:,.0f} node-steps/s "
              f"vs floor {point_floor:,.0f} -> {point_verdict}")
        if point_verdict == "FAIL":
            failed_points.append(nodes)
    if failed_points:
        print(f"bench_guard: fleet-scale throughput regressed at "
              f"{failed_points} nodes; the batched control path or the "
              f"vectorized RC substeps likely lost their layout win.",
              file=sys.stderr)
        return 1
    return 0 if memory_ok else 1


if __name__ == "__main__":
    sys.exit(main())
