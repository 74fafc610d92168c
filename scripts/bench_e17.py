#!/usr/bin/env python3
"""E17: the merge loop's pace, a parent checkout against a change.

Usage: bench_e17.py PARENT CHANGE [--pairs N] [--first-seed S]
                    [--out BENCH_E17.json]

PARENT and CHANGE are two checkouts of the repository, e.g. the commit
before the pace and the commit with it (`git archive` each into its own
directory). The script

1. builds benchmark/'s ft_bench in each (build-bench/, Release, as
   benchmark/run.py does) and CHANGE's bench_online_overhead (build-e17/,
   Release with FT_NDEBUG);
2. runs N pairs of ft_bench processes, one per side, alternating which
   side goes first, on online_lock_heavy, online_racy_shared and
   online_big_heap (pair k runs seed S + k - 1, sample counts as in a
   benchmark/run.py set), and keeps each process's median ns/event;
3. runs CHANGE's bench_online_overhead once (FT_BENCH_SIZE=1) for the
   merge-loop counters of its 2- and 4-thread FASTTRACK sessions and the
   host's cross-core round trip.

It prints median (min-max) per side and workload and the pairs the change
won, and writes them, the counters and the round trip to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ["online_lock_heavy", "online_racy_shared", "online_big_heap"]
COUNTERS = ["merge_sweeps", "merge_empty_polls", "merge_paced_waits",
            "fasttrack_ns_per_event", "events"]


def run(cmd, **kw):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, **kw)


def build(root, e17):
    bench = root / "build-bench"
    if not (bench / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(root / "benchmark"), "-B", str(bench),
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", str(bench), "--target", "ft_bench", "-j3"])
    if e17:
        tree = root / "build-e17"
        if not (tree / "CMakeCache.txt").is_file():
            run(["cmake", "-S", str(root), "-B", str(tree),
                 "-DCMAKE_BUILD_TYPE=Release", "-DFT_NDEBUG=ON"])
        run(["cmake", "--build", str(tree), "--target",
             "bench_online_overhead", "-j3"])
    return bench / "ft_bench"


def median_ns(binary, workload, seed, samples):
    out = subprocess.run([str(binary), "--workload", workload, "--seed",
                          str(seed), "--samples", str(samples)],
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{binary}: {workload} seed {seed}: {result['failures']}")
    return statistics.median(result["samples"]["ns_per_event"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()

    sys.dont_write_bytecode = True  # leave the checkouts' benchmark/ as is
    sys.path.insert(0, str(change / "benchmark"))
    from run import SET_SAMPLES  # the sample counts of a benchmark set

    binaries = {"parent": build(parent, False), "change": build(change, True)}
    values = {(side, w): [] for side in binaries for w in WORKLOADS}
    for pair in range(1, args.pairs + 1):
        sides = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for w in WORKLOADS:
            for side in sides:
                values[side, w].append(
                    median_ns(binaries[side], w, args.first_seed + pair - 1,
                              SET_SAMPLES[w]))
        print(f"pair {pair}: " + "  ".join(
            f"{w} {values['parent', w][-1]:.1f} -> "
            f"{values['change', w][-1]:.1f}" for w in WORKLOADS),
            file=sys.stderr)

    metrics = []

    def metric(name, value, unit=None):
        metrics.append({"name": name, "value": value} |
                       ({"unit": unit} if unit else {}))

    for w in WORKLOADS:
        short = w.removeprefix("online_")
        for side in binaries:
            v = values[side, w]
            metric(f"{side}_{short}_ns_per_event", statistics.median(v), "ns")
            metric(f"{side}_{short}_ns_per_event_min", min(v), "ns")
            metric(f"{side}_{short}_ns_per_event_max", max(v), "ns")
        won = sum(c < p for p, c in zip(values["parent", w],
                                         values["change", w]))
        metric(f"{short}_pairs_won", won)
        print(f"{w}: parent {statistics.median(values['parent', w]):.1f} "
              f"({min(values['parent', w]):.1f}-"
              f"{max(values['parent', w]):.1f}), change "
              f"{statistics.median(values['change', w]):.1f} "
              f"({min(values['change', w]):.1f}-"
              f"{max(values['change', w]):.1f}) ns/event, change won "
              f"{won}/{args.pairs} pairs")

    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "e12.json"
        run([str(change / "build-e17" / "bench" / "bench_online_overhead"),
             "--json", str(doc)],
            env=dict(os.environ, FT_BENCH_SIZE="1", FT_BENCH_REPS="3"))
        e12 = {m["name"]: m for m in json.loads(doc.read_text())["metrics"]}
    for name, m in e12.items():
        if name.startswith("xcore_round_trip_ns") or any(
                name == f"t{t}_{c}" for t in (2, 4) for c in COUNTERS):
            metrics.append(m)
            print(f"  {name} = {m['value']:.6g} {m.get('unit', '')}")

    if args.out:
        Path(args.out).write_text(
            f'{{\n  "bench": "e17_merge_polling",\n  "pairs": {args.pairs},\n'
            f'  "first_seed": {args.first_seed},\n  "metrics": [\n'
            + ",\n".join("    " + json.dumps(m) for m in metrics)
            + "\n  ]\n}\n")


if __name__ == "__main__":
    main()
