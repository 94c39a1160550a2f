#!/usr/bin/env python3
"""thermbench entry point: build from source, run one workload, check the result.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark into build-bench/ (the root CMake project plus the
benchmark/thermbench.cmake hook; build output goes to stderr); every run
re-invokes the incremental build, then runs build-bench/benchmark/thermbench
with the same arguments.

BENCHMARK.json is the metric catalogue. thermbench's last stdout line holds
every metric the run measured; each must be listed there with the same unit.
The result passed on keeps the mode's metrics: every end-to-end metric
(--trace 0), which the run must have measured, or every per-layer metric
(--trace 1), where a layer the workload does not run reads 0. Exits non-zero,
without printing a result, when the build fails or the result does not match;
exits with the program's status otherwise.
"""
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = "build-bench"
BINARY = Path(BUILD) / "benchmark" / "thermbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        configure = [
            "cmake", "-S", ".", "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG",
            "-DTHERMCTL_BUILD_TESTS=OFF",
            "-DTHERMCTL_BUILD_BENCH=OFF",
            "-DTHERMCTL_BUILD_EXAMPLES=OFF",
            f"-DCMAKE_PROJECT_thermctl_INCLUDE={ROOT / 'benchmark' / 'thermbench.cmake'}",
        ]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD, "--target", "thermbench", "-j", jobs]
    return subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def mode_result(line, trace):
    """(result, None) with the mode's metrics, or (None, error message)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are not exactly correct, attempted, failed, metrics"
    if not isinstance(result["correct"], bool):
        return None, "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return None, f"{key} is not a whole number"
    if result["attempted"] < 1:
        return None, "attempted is below 1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    got = result["metrics"]
    if not isinstance(got, dict):
        return None, "metrics is not an object"
    for name, entry in got.items():
        if name not in units:
            return None, f"metric {name} is not in BENCHMARK.json"
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            return None, f"metric {name} is not {{value, unit}}"
        if entry["unit"] != units[name]:
            return None, f"metric {name} has unit {entry['unit']}, BENCHMARK.json says {units[name]}"
        if not isinstance(entry["value"], (int, float)) or isinstance(entry["value"], bool):
            return None, f"metric {name} is not a number"
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            return None, f"end-to-end metric {m['name']} was not measured"
    return {**result, "metrics": metrics}, None


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    if not build():
        log("build failed")
        return 1
    command = [str(ROOT / BINARY), *argv, "--scratch", BUILD]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop_child(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log(f"thermbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").split("\n")
    result, error = mode_result(lines[-1], trace) if lines[-1] else (None, "no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if error is not None:
        log(f"thermbench exited {child.returncode}; rejecting its result: {error}")
        return child.returncode or 1
    print(json.dumps(result), flush=True)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
