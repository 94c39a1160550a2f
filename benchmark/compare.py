#!/usr/bin/env python3
"""Compare thermbench result sets against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py RUNS_DIR                 # one set: spreads
    python3 benchmark/compare.py BASE_DIR NEW_DIR         # two sets: verdicts

A result file is the captured stdout of one run (`python3 benchmark/run.py
... > file`): its `thermbench workload=... seed=...` header names the run, its
last line is the result object. End-to-end metrics come from untraced runs,
per-layer metrics (the host-time ones among them) from traced runs. A
per-layer metric that reads 0 in every run is a layer the workload does not
run, and is skipped.

One set: for every (workload, metric) the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, against the
bound where the metric has one.

Two sets: each (workload, end-to-end metric) pair gets one verdict:
  unresolved    either set's spread exceeds the bound, and the new runs do
                not all read better than every base run;
  worse         the new median is worse than the base median by more than
                the bound;
  within bound  otherwise.
Per-layer metrics have no bound and get no verdict. Every metric gets the
win rule for claiming a gain: the new side wins at least
nine tenths of the seed-matched pairs (ties count for neither, at least ten
pairs) and the medians differ, in the better direction, by more than the
base set's interquartile distance.

A run fails when its result says correct=false or failed > 0, or when its
file has a header but no result object (it crashed, or run.py rejected it).
ok_frac, 1 - failed/attempted, is the end-to-end form of the same check:
its bound is effectively zero, so any failure makes that pair worse.

Exit status: 0 when every run was correct and no pair is worse or
unresolved, 1 otherwise, 2 on bad usage.
"""
import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"^thermbench workload=(\S+) seed=(\d+) seconds=(\S+) trace=([01])\s*$")


def load_runs(directory):
    """({workload: [(seed, trace, result, file name)]}, [crashed run]) from every file
    in `directory`. A file with a thermbench header but no result object as its
    last line is a run that crashed or was rejected."""
    runs, crashed = {}, []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text(errors="replace").splitlines() if line.strip()]
        header = next((HEADER.match(line) for line in lines if HEADER.match(line)), None)
        if header is None:
            print(f"skipping {path}: no thermbench header", file=sys.stderr)
            continue
        workload, seed, _, trace = header.groups()
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
            crashed.append(f"{workload} seed {seed}{' traced' if trace == '1' else ''} "
                           f"({path.name}): no result line")
            continue
        runs.setdefault(workload, []).append((int(seed), trace == "1", result, path.name))
    return runs, crashed


def values(runs, metric, traced):
    """The metric's values over the untraced (end-to-end) or traced (per-layer) runs."""
    return [r["metrics"][metric]["value"] for _, t, r, _ in runs
            if t == traced and metric in r["metrics"]]


def metric_groups(spec):
    """(metric, traced): end-to-end metrics come from untraced runs, per-layer ones
    from traced runs. A per-layer metric has no bound."""
    return [(m, False) for m in spec["end_to_end"]] + [(m, True) for m in spec["per_layer"]]


def summary(xs):
    if len(xs) < 2 or not any(xs):  # a per-layer metric reads 0 where its layer is absent
        return None
    q1, med, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(base, new, better):
    """Relative amount by which `new` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def failures(runs):
    bad = []
    for workload, items in runs.items():
        for seed, traced, result, name in items:
            if not result.get("correct") or result.get("failed", 0) > 0:
                bad.append(f"{workload} seed {seed}{' traced' if traced else ''} ({name}): "
                           f"correct={result.get('correct')} failed={result.get('failed')}"
                           f"/{result.get('attempted')}")
    return bad


def one_set(spec, runs):
    print(f"{'workload':14} {'metric':30} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  note")
    for workload in sorted(runs):
        for m, traced in metric_groups(spec):
            xs = values(runs[workload], m["name"], traced)
            s = summary(xs)
            if s is None:
                continue
            med, q1, q3, spread = s
            bound = m.get("bound")
            if bound is None:
                note = "per-layer, traced runs"
            elif spread <= bound / 3:
                note = "ok"
            else:
                note = "spread > bound/3" if spread <= bound else "SPREAD > BOUND"
            print(f"{workload:14} {m['name']:30} {len(xs):>3} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.4f} {'-' if bound is None else bound:>6}  {note}")
    return 0


def two_sets(spec, base_runs, new_runs):
    status = 0
    print(f"{'workload':14} {'metric':30} {'base median [q1, q3]':>38} "
          f"{'new median [q1, q3]':>38} {'worse':>8} {'bound':>6}  verdict / gain")
    for workload in sorted(set(base_runs) & set(new_runs)):
        for m, traced in metric_groups(spec):
            name, bound, better = m["name"], m.get("bound"), m["better"]
            bx = values(base_runs[workload], name, traced)
            nx = values(new_runs[workload], name, traced)
            bs, ns = summary(bx), summary(nx)
            if bs is None or ns is None:
                continue
            worse = worse_by(bs[0], ns[0], better)
            all_better = all(worse_by(b, n, better) < 0 for b in bx for n in nx)
            if bound is None:
                verdict = "per-layer, no bound"
            elif max(bs[3], ns[3]) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            if verdict in ("unresolved", "worse"):
                status = 1
            base_by_seed = {seed: r["metrics"][name]["value"]
                            for seed, t, r, _ in base_runs[workload]
                            if t == traced and name in r["metrics"]}
            pairs = [(base_by_seed[seed], r["metrics"][name]["value"])
                     for seed, t, r, _ in new_runs[workload]
                     if t == traced and seed in base_by_seed and name in r["metrics"]]
            wins = sum(1 for b, n in pairs if worse_by(b, n, better) < 0)
            gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and -worse * abs(bs[0]) > (bs[2] - bs[1]))
            print(f"{workload:14} {name:30} "
                  f"{bs[0]:>12.6g} [{bs[1]:>10.6g}, {bs[2]:>10.6g}] "
                  f"{ns[0]:>12.6g} [{ns[1]:>10.6g}, {ns[2]:>10.6g}] "
                  f"{worse:>+8.4f} {'-' if bound is None else bound:>6}  {verdict}; "
                  f"{wins}/{len(pairs)} pairs won{', gain' if gain else ''}")
    return status


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", help="one or two directories of result files")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                                   / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result directories")
    spec = json.loads(Path(args.benchmark).read_text())
    loaded = [load_runs(d) for d in args.sets]
    sets = [runs for runs, _ in loaded]
    bad = [line for runs, crashed in loaded for line in crashed + failures(runs)]
    for line in bad:
        print(f"FAILED RUN: {line}")
    status = one_set(spec, sets[0]) if len(sets) == 1 else two_sets(spec, *sets)
    return 1 if bad else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
