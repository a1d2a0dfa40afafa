"""torusclass benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` tree; without it the run exits 2 and prints no result.

A run first times set-up ``PROBES`` times, each in a fresh interpreter,
and takes the medians.  It then runs whole passes of the workload, each
in a fresh interpreter (``worker.py``), until the timed total reaches
``--seconds``.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json; their times are in seconds at the host's nominal speed
(``clock.py``), and the raw figures go to the summary.  With ``--trace 1``
it runs the passes with the layer wrappers of ``tracer.py``, runs the
same passes again without them, and prints the per-layer metrics, whose
times are raw (``cli.import_s`` apart, which a probe measures).  A summary
goes to stderr, the result is the last line of stdout, and the traced
run's span records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
PROBES = 5
# Wall-clock guards, inside the 180 s a run may take: no pass starts after
# them, and a pass that reaches them stops.  A traced run spends up to the
# first on traced passes and the rest on the same passes untraced.
RUN_LIMIT_S = 150.0
TRACED_LIMIT_S = 70.0
# Percentile reported as item_tail_ms: the highest one with at least ten
# samples beyond it at the run's usual sample count.
TAIL_PERCENTILE = {"oracle_sweep": 99, "compare_pairs": 99, "table_grid": 99,
                   "large_descriptors": 50}


def child(script: str, *args) -> dict:
    """Run a script of this directory and return its last stdout line as
    JSON.  String hashing is fixed so every child lays out its dicts alike."""
    proc = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                          cwd=checkout.ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"}, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {script} {' '.join(map(str, args))} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               deadline: float, passes: int | None = None) -> list[dict]:
    """Whole passes until the scaled timed total reaches `seconds` (or
    exactly `passes` passes), unless the wall clock reaches `deadline`."""
    records, spent = [], 0.0
    while ((spent < seconds) if passes is None else (len(records) < passes)) \
            and time.monotonic() < deadline:
        args = ["--workload", workload, "--seed", seed, "--pass", len(records),
                "--limit", deadline - time.monotonic()]
        record = child("worker.py", *args, *(["--traced"] if traced else []))
        records.append(record)
        spent += sum(record["scaled"])
    return records


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def end_to_end(workload, records, probes) -> dict:
    durations = sorted(d for r in records for d in r["scaled"])
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": len(durations) / sum(durations),
        "item_p50_ms": 1000 * statistics.median(durations),
        "item_tail_ms": 1000 * nearest_rank(durations, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
    }


def per_layer(traced, plain, probes, names) -> dict:
    """Counts and self times summed over the traced passes; a layer the
    workload never calls reads 0."""
    out = dict.fromkeys(names, 0)
    for r in traced:
        for key, value in r["counts"].items():
            out[key] += value
        for key, value in r["self_s"].items():
            out[f"{key}.self_s"] += value
    calls = out["isosearch.verify_iso.calls"]
    out["isosearch.verify_iso.accept_frac"] = (
        out["isosearch.verify_iso.accepted"] / calls if calls else 0.0)
    traced_wall = sum(sum(r["durations"]) for r in traced)
    traced_items = sum(r["items"] for r in traced)
    plain_wall = sum(sum(r["durations"]) for r in plain)
    plain_items = sum(r["items"] for r in plain)
    out["trace.items"] = traced_items
    out["trace.wall_s"] = traced_wall
    out["trace.self_frac"] = sum(sum(r["self_s"].values()) for r in traced) / traced_wall
    out["trace.overhead_frac"] = (traced_wall / traced_items) / (plain_wall / plain_items) - 1
    out["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    return out


def problems_of(workload, seed, records) -> list[str]:
    """Failed items, and a changed digest of the default seed's first pass."""
    import workloads

    found = [e for r in records for e in r["errors"]]
    expected = json.loads((HERE / "expected_digests.json").read_text())
    first = records[0]
    if seed == workloads.DEFAULT_SEED and first["complete"] and first["digest"] != expected[workload]:
        found.append(f"default-seed output digest {first['digest']} != {expected[workload]}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()
    checkout.use_checkout_source()
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    probes = [child("probe.py", "--workload", args.workload, "--seed", args.seed)
              for _ in range(PROBES)]
    if args.trace:
        records = run_passes(args.workload, args.seed, args.seconds, True,
                             started + TRACED_LIMIT_S)
        plain = run_passes(args.workload, args.seed, args.seconds, False,
                           started + RUN_LIMIT_S, passes=len(records))
        listed = bench["per_layer"]
        values = per_layer(records, plain, probes, [m["name"] for m in listed])
        problems = problems_of(args.workload, args.seed, records + plain)
        for index, (t, p) in enumerate(zip(records, plain)):
            if t["complete"] and p["complete"] and t["digest"] != p["digest"]:
                problems.append(f"traced output of pass {index} differs from untraced")
        if values["trace.self_frac"] > 1:
            problems.append("layer self times exceed the traced wall time")
        write_spans(args.workload, args.seed, records)
    else:
        records = run_passes(args.workload, args.seed, args.seconds, False,
                             started + RUN_LIMIT_S)
        values, listed = end_to_end(args.workload, records, probes), bench["end_to_end"]
        problems = problems_of(args.workload, args.seed, records)

    attempted = sum(r["items"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    summarize(args, records, metrics, attempted, failed, problems)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_spans(workload, seed, records) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = [[p, *s] for p, r in enumerate(records) for s in r["spans"]]
    doc = {"fields": ["pass", "name", "start", "end", "parent", "item"], "spans": spans}
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc))


def summarize(args, records, metrics, attempted, failed, problems) -> None:
    err = sys.stderr
    raw = [d for r in records for d in r["durations"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} passes, {attempted} items, failed_frac={failed / attempted:.6f}, "
          f"raw items_per_s={len(raw) / sum(raw):.6g}, "
          f"raw item_p50_ms={1000 * statistics.median(raw):.6g}", file=err)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    for r in records:
        print(f"  pass digest {r['digest']}{'' if r['complete'] else ' (cut)'}", file=err)
    for p in problems:
        print(f"  PROBLEM: {p}", file=err)


if __name__ == "__main__":
    sys.exit(main())
