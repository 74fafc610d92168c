#!/usr/bin/env python3
"""Builds and runs the detector benchmark; see README.md.

One workload, as a harness calls it (prints one JSON result line last):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

A set: R rounds of one process per workload, samples pooled:
    python3 benchmark/run.py [--seed N] [--rounds R] [--out set.json]
                             [--append] [--trace spans.json]

Quick check of every correctness path at small sizes:
    python3 benchmark/run.py --smoke

The section 8 rule of the choosing-metrics method, per metric and workload:
    python3 benchmark/run.py --compare parent.json change.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "ft_bench"
CONTRACT = ROOT / "BENCHMARK.json"

# Fixed per-process sample counts of a set, so that two commits do the
# same work: at least 100 pooled samples per workload over 10 rounds.
SET_SAMPLES = {"offline_table1": 12, "online_lock_heavy": 60,
               "online_big_heap": 20, "online_racy_shared": 40}
SMOKE_SAMPLES = 3
SMOKE_TRACE_SECONDS = 2

# Which end-to-end metric, on which workload, each per-layer metric should
# move. core.ns_per_event.<trace> entries are added below.
TARGETS = {
    "runtime.emit_ns_p50": [("ns_per_event_p50", "online_lock_heavy"),
                            ("ns_per_event_p50", "online_racy_shared")],
    "runtime.emit_ns_p99": [("ns_per_event_p50", "online_lock_heavy")],
    "runtime.park_per_mevent": [("ns_per_event_p50", "online_lock_heavy")],
    "runtime.max_backlog": [("ns_per_event_p50", "online_racy_shared")],
    "runtime.drain_s": [("ns_per_event_p50", "online_big_heap")],
    "runtime.empty_ns_per_event": [("ns_per_event_p50", "online_lock_heavy")],
    "runtime.shards1_ns_per_event": [("ns_per_event_p50", "online_big_heap")],
    "runtime.one_cpu_ns_per_event": [("ns_per_event_p50", "online_lock_heavy"),
                                     ("ns_per_event_p50",
                                      "online_racy_shared")],
    "runtime.capture_ns_per_event": [("ns_per_event_p50",
                                      "online_racy_shared")],
    "runtime.race_report_latency_us_p50": [("ns_per_event_p50",
                                            "online_racy_shared")],
    "runtime.race_report_latency_us_p99": [("ns_per_event_p50",
                                            "online_racy_shared")],
    "framework.offer_ns_per_event": [("ns_per_event_p50", "online_lock_heavy"),
                                     ("ns_per_event_p50",
                                      "online_racy_shared")],
    "framework.offer_empty_ns_per_event": [("ns_per_event_p50",
                                            "online_lock_heavy")],
    "framework.replay_empty_ns_per_event": [("ns_per_event_p50",
                                             "offline_table1")],
    "framework.fasttrack_vs_empty": [("ns_per_event_p50", "offline_table1")],
    "core.ns_per_event": [("ns_per_event_p50", "offline_table1"),
                          ("ns_per_event_p50", "online_racy_shared")],
    "core.same_epoch_frac": [("ns_per_event_p50", "offline_table1")],
    "core.read_shared_frac": [("ns_per_event_p50", "online_racy_shared")],
    "core.slow_path_frac": [("ns_per_event_p50", "offline_table1")],
    "clock.vc_ops": [("ns_per_event_p50", "offline_table1")],
    "clock.allocations": [("ns_per_event_p50", "online_racy_shared")],
    "shadow.high_water_bytes": [("peak_rss_bytes", "online_big_heap")],
    "shadow.ungoverned_high_water_bytes": [("peak_rss_bytes",
                                            "online_big_heap")],
    "shadow.pages_compressed": [("ns_per_event_p50", "online_big_heap")],
    "shadow.pages_summarized": [("ns_per_event_p50", "online_big_heap")],
    "shadow.budget_trips": [("ns_per_event_p50", "online_big_heap")],
    "trace.parse_ns_per_event": [("setup_s", "offline_table1")],
    "trace.capture_bytes": [("peak_rss_bytes", "online_racy_shared")],
}
PER_TRACE = "core.ns_per_event."
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def quantile(values, q):
    """q-quantile interpolating between order statistics, as ft_bench."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


# --- contract -------------------------------------------------------------

def load_contract():
    try:
        contract = json.loads(CONTRACT.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {CONTRACT}: {e}")
    lint(contract)
    return contract


def lint(c):
    """Checks BENCHMARK.json against the benchmark contract and TARGETS."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(c) != keys:
        problems.append(f"keys must be exactly {sorted(keys)}")
    workloads = [w.get("name") for w in c.get("workloads", [])]
    e2e = c.get("end_to_end", [])
    layers = c.get("per_layer", [])
    if not 2 <= len(workloads) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= len(e2e) <= 16:
        problems.append("1 to 16 end-to-end metrics")
    if not 1 <= len(layers) <= 128:
        problems.append("1 to 128 per-layer metrics")
    if not isinstance(c.get("run_seconds"), int) or \
            not 1 <= c["run_seconds"] <= 60:
        problems.append("run_seconds is a whole number from 1 to 60")
    names = workloads + [m.get("name") for m in e2e + layers]
    for n in names:
        if not isinstance(n, str) or not NAME.fullmatch(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in e2e + layers:
        if not UNIT.fullmatch(str(m.get("unit"))):
            problems.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
    for w in c.get("workloads", []):
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            problems.append(f"workload {w.get('name')}: name and a short why")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            problems.append(f"{m.get('name')}: unit, better, bound <= 0.25")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"{m.get('name')}: exactly name, unit, better")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is required")
    elif any(m["bound"] > setup[0]["bound"] for m in e2e):
        problems.append("setup_s must have the largest bound")
    e2e_names = {m.get("name") for m in e2e}
    for m in layers:
        targets = target_of(m["name"])
        if not targets:
            problems.append(f"{m['name']}: no (end-to-end, workload) target")
        for metric, workload in targets:
            if metric not in e2e_names or workload not in workloads:
                problems.append(f"{m['name']}: bad target {metric}/{workload}")
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems))


def target_of(name):
    if name.startswith(PER_TRACE):
        return [("ns_per_event_p50", "offline_table1")]
    return TARGETS.get(name, [])


# --- building and running -------------------------------------------------

def build():
    """Configures and builds ft_bench against ../src (Release, no LTO)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no detector sources at {ROOT / 'src'}")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "ft_bench", "-j", str(os.cpu_count() or 1)],
                       stdout=log, stderr=log)
    if r.returncode:
        fail("build failed")


def run_bench(workload, seed, seconds=None, samples=None, trace=None,
              smoke=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--scratch", str(BUILD)]
    cmd += ["--seconds", str(seconds)] if seconds else \
        ["--samples", str(samples)]
    if trace:
        cmd += ["--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        fail(f"ft_bench failed on {workload} (exit {r.returncode})")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"ft_bench printed no result for {workload}")


# --- metrics --------------------------------------------------------------

def pooled(runs, key):
    return [x for r in runs for x in r["samples"].get(key, [])]


# Each end-to-end metric from one or more ft_bench results: its value and
# its sample count.
E2E = {
    "ns_per_event_p50": lambda rs: (quantile(pooled(rs, "ns_per_event"), .5),
                                    len(pooled(rs, "ns_per_event"))),
    "setup_s": lambda rs: (quantile(pooled(rs, "setup_s"), .5),
                           len(pooled(rs, "setup_s"))),
    "peak_rss_bytes": lambda rs: (quantile([r["peak_rss_bytes"] for r in rs],
                                           .5), len(rs)),
}
# Reported by a set, not gated: the 90th percentile of the samples (it
# tracks how often the host contends the benchmark's CPUs; README.md),
# race latency, which only a workload with races has, and the offline
# times as measured, before the yardstick (README.md).
EXTRAS = {
    "ns_per_event_p90": ("ns_per_event", "ns", .9),
    "race_report_latency_us_p50": ("race_report_latency_us", "us", .5),
    "race_report_latency_us_p99": ("race_report_latency_us", "us", .99),
    "raw_ns_per_event_p50": ("raw_ns_per_event", "ns", .5),
    "raw_setup_s": ("raw_setup_s", "s", .5),
}


def correct(run):
    return (run["correct"] and run["events_lost_frac"] == 0
            and run["warning_mismatch"] == 0)


def e2e_metrics(contract, runs):
    out = {}
    for m in contract["end_to_end"]:
        if m["name"] not in E2E:
            fail(f"no definition for end-to-end metric {m['name']}")
        value, n = E2E[m["name"]](runs)
        out[m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    return out


# --- spans ----------------------------------------------------------------

def self_times(path):
    """Per (layer, span name): count and self time in ms, where self time
    is a span's duration minus the part its children cover."""
    events = [e for e in json.loads(Path(path).read_text())["traceEvents"]
              if e.get("ph") == "X"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    table = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        kids = sorted(children.get(e["args"]["id"], []),
                      key=lambda k: k["ts"])
        for k in kids:
            lo, hi = max(k["ts"], cursor), min(k["ts"] + k["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault((e["cat"], e["name"]), [0, 0.0])
        row[0] += 1
        row[1] += (e["dur"] - covered) / 1e3
    return table


def print_trace_report(contract, run, untraced_p50=None):
    tracing = run["tracing"]
    print(f"\nper-layer metrics, {run['workload']} (target: end-to-end "
          "metric / workload it should move)")
    for m in contract["per_layer"]:
        value = run["layers"].get(m["name"])
        targets = ", ".join(f"{a}/{b}" for a, b in target_of(m["name"]))
        print(f"  {m['name']:40s} {value:14.6g} {m['unit']:8s} {targets}")
    print(f"\nself time by span, {run['workload']} ({tracing['spans']})")
    layers = {}
    table = sorted(self_times(tracing["spans"]).items(),
                   key=lambda kv: -kv[1][1])
    for (layer, name), (count, ms) in table:
        layers[layer] = layers.get(layer, 0.0) + ms
        print(f"  {layer:10s} {name:28s} {count:8d} {ms:12.3f} ms")
    print("  by layer: " + ", ".join(f"{k} {v:.1f} ms" for k, v in
                                    sorted(layers.items(),
                                           key=lambda kv: -kv[1])))
    base = untraced_p50 or tracing["untraced_ns_per_event_p50"]
    print(f"  tracing overhead: {tracing['traced_ns_per_event_p50'] - base:+.3f}"
          f" ns/event (traced p50 {tracing['traced_ns_per_event_p50']:.3f},"
          f" untraced p50 {base:.3f})")


# --- one workload, as a harness calls it ----------------------------------

def single(contract, args):
    if args.trace is None:
        args.trace = "0"
    if args.trace not in ("0", "1"):
        fail("--trace is 0 or 1 with --workload")
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()
    traced = args.trace == "1"
    spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
    run = run_bench(args.workload, args.seed, seconds=args.seconds,
                    trace=spans if traced else None)
    if traced:
        print_trace_report(contract, run)
        names = [m["name"] for m in contract["per_layer"]]
        if set(run["layers"]) != set(names):
            fail("per-layer metrics differ from BENCHMARK.json: " +
                 str(sorted(set(run["layers"]) ^ set(names))))
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        metrics = {n: {"value": run["layers"][n], "unit": units[n]}
                   for n in names}
    else:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in e2e_metrics(contract, [run]).items()}
        for n, m in metrics.items():
            print(f"  {args.workload} {n} = {m['value']:.6g} {m['unit']}")
        for n in ("raw_ns_per_event_p50", "raw_setup_s"):
            key, unit, q = EXTRAS[n]
            if run["samples"].get(key):
                print(f"  {args.workload} {n} = "
                      f"{quantile(run['samples'][key], q):.6g} {unit} "
                      "(ungated)")
    for f in run["failures"]:
        print(f"  failure: {f}")
    print(json.dumps({"correct": correct(run), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


# --- a set of rounds ------------------------------------------------------

def summarize(contract, runs_by_workload):
    out = {}
    for w, runs in runs_by_workload.items():
        rounds = sorted({r["round"] for r in runs})
        metrics = e2e_metrics(contract, runs)
        for name, m in metrics.items():
            per_round = [E2E[name]([r for r in runs if r["round"] == k])[0]
                         for k in rounds]
            m["per_round"] = per_round
            if len(per_round) >= 2:
                q = statistics.quantiles(per_round, n=4)
                m["q1"], m["q3"] = q[0], q[2]
        for name, (key, unit, q) in EXTRAS.items():
            values = pooled(runs, key)
            if values:
                metrics[name] = {"value": quantile(values, q), "unit": unit,
                                 "n": len(values)}
        out[w] = {
            "correct": all(correct(r) for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "events_lost_frac": max(r["events_lost_frac"] for r in runs),
            "warning_mismatch": sum(r["warning_mismatch"] for r in runs),
            "metrics": metrics,
        }
    return out


def run_set(contract, args):
    build()
    workloads = [w["name"] for w in contract["workloads"]]
    samples = {w: SMOKE_SAMPLES if args.smoke else SET_SAMPLES[w]
               for w in workloads}
    rounds = 1 if args.smoke else args.rounds
    previous = []
    if args.append and args.out and Path(args.out).is_file():
        old = json.loads(Path(args.out).read_text())
        if old["seed"] != args.seed or old["samples"] != samples:
            fail(f"{args.out} holds a set with another seed or sample count")
        previous = old["runs"]
    first = 1 + max((r["round"] for r in previous), default=0)
    runs = list(previous)
    for k in range(rounds):
        order = workloads[k % len(workloads):] + workloads[:k % len(workloads)]
        for w in order:
            print(f"round {first + k}: {w}", file=sys.stderr)
            r = run_bench(w, args.seed, samples=samples[w], smoke=args.smoke)
            r["round"] = first + k
            runs.append(r)
    by_workload = {w: [r for r in runs if r["workload"] == w]
                   for w in workloads}
    summary = summarize(contract, by_workload)

    print(f"\nset: seed {args.seed}, {len({r['round'] for r in runs})} "
          f"round(s), samples per process {samples}")
    for w, s in summary.items():
        print(f"{w}: correct={s['correct']} attempted={s['attempted']} "
              f"failed={s['failed']} events_lost_frac={s['events_lost_frac']}"
              f" warning_mismatch={s['warning_mismatch']}")
        for name, m in s["metrics"].items():
            spread = ""
            if "q1" in m:
                iqr = (m["q3"] - m["q1"]) / statistics.median(m["per_round"])
                spread = f"  IQR/median of rounds {iqr:.3f}"
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={m['n']}{spread}")
    for r in runs:
        for f in r["failures"]:
            print(f"  failure ({r['workload']}, round {r['round']}): {f}")

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "samples": samples, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    if args.trace or args.smoke:
        spans_out = {"traceEvents": []}
        seconds = SMOKE_TRACE_SECONDS if args.smoke else \
            contract["run_seconds"]
        for pid, w in enumerate(workloads, 1):
            spans = BUILD / f"spans-{w}-{args.seed}.json"
            r = run_bench(w, args.seed, seconds=seconds, trace=spans,
                          smoke=args.smoke)
            summary[w]["correct"] &= correct(r)
            untraced = summary[w]["metrics"]["ns_per_event_p50"]["value"]
            print_trace_report(contract, r, untraced)
            names = {m["name"] for m in contract["per_layer"]}
            if set(r["layers"]) != names:
                fail(f"{w}: per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(set(r['layers']) ^ names)}")
            for e in json.loads(spans.read_text())["traceEvents"]:
                e["pid"] = pid
                spans_out["traceEvents"].append(e)
        if args.trace:
            Path(args.trace).write_text(json.dumps(spans_out) + "\n")
    if not all(s["correct"] for s in summary.values()):
        print("run.py: a correctness check failed", file=sys.stderr)
        sys.exit(1)


# --- comparing two sets ---------------------------------------------------

def compare(contract, parent_path, change_path):
    """Section 8: at least 10 pairs; a gain needs 9 in 10 pairs won and a
    median difference beyond the parent's IQR; a metric whose parent
    spread exceeds its bound is unresolved unless every change round beats
    every parent round."""
    parent = json.loads(Path(parent_path).read_text())["summary"]
    change = json.loads(Path(change_path).read_text())["summary"]
    print(f"{'workload':20s} {'metric':20s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'won':>7s}  verdict")
    for w in parent:
        for m in contract["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            p = parent[w]["metrics"][name]["per_round"]
            c = change.get(w, {}).get("metrics", {}).get(name, {}).get(
                "per_round", [])
            pairs = list(zip(p, c))
            if not pairs:
                continue
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            won = sum(better(b, a) for a, b in pairs)
            mp, mc = statistics.median(p), statistics.median(c)
            q = statistics.quantiles(p, n=4) if len(p) >= 2 else [mp, mp, mp]
            iqr = q[2] - q[0]
            delta = (mc - mp) / mp if mp else 0.0
            worse = delta if lower else -delta
            if len(pairs) < 10:
                verdict = "too few pairs (need 10)"
            elif won >= 0.9 * len(pairs) and abs(mc - mp) > iqr:
                verdict = "improved"
            elif worse > bound:
                verdict = "regressed"
            elif iqr / mp > bound and not all(better(b, a) for a in p
                                               for b in c):
                verdict = "unresolved"
            else:
                verdict = "no change"
            print(f"{w:20s} {name:20s} {mp:12.6g} {mc:12.6g} {delta:+8.1%} "
                  f"{won:3d}/{len(pairs):<3d}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", help="0|1 with --workload; else a file for "
                    "the set's spans")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", help="write the set's samples and summary here")
    ap.add_argument("--append", action="store_true",
                    help="add the rounds to those already in --out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    contract = load_contract()
    if args.compare:
        compare(contract, *args.compare)
    elif args.workload:
        if not args.seconds:
            fail("--seconds is required with --workload")
        single(contract, args)
    else:
        run_set(contract, args)


if __name__ == "__main__":
    main()
