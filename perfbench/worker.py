"""Run one pass of a workload in a fresh interpreter; print its record as
one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --pass P [--traced] [--limit S]

Each item's call into the program is timed on its own, raw and scaled to
the host's nominal speed (see ``clock.py``); the output check and
rendering that follow it are not timed.  Traced passes run without the
clock's ticks, so their times are raw only.  A fresh interpreter per pass
means program caches start cold on every pass.  ``--limit`` cuts the pass once
the raw timed total exceeds it, as a guard against a run overrunning.
"""

import argparse
import hashlib
import json
import resource

import checkout
from clock import ScaledClock


def digest(lines) -> str:
    """Order-independent digest of a pass's rendered outputs."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_pass(workload, clock, tracer=None, limit=float("inf")) -> dict:
    """Run the pass's items in order, each timed on its own by `clock`."""
    raw, scaled, lines, errors = [], [], [], []
    failed = 0
    spent = 0.0
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
            tracer.active = True
        clock.start()
        try:
            out = workload.run(item)
            problem = None
        except Exception as exc:  # a raising item is a failed item; keep going
            problem = f"raised {exc!r}"
        finally:
            seconds, nominal = clock.stop()
            if tracer is not None:
                tracer.active = False
        raw.append(seconds)
        scaled.append(nominal)
        spent += seconds
        if problem is None:
            problem = workload.check(item, out)
        if problem is None:
            lines.append(workload.line(item, out))
        else:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{item}: {problem}")
        if spent > limit:
            break
    return {
        "items": len(raw),
        "complete": len(raw) == len(workload.items),
        "failed": failed,
        "errors": errors,
        "durations": raw,
        "scaled": scaled,
        "digest": digest(lines),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--limit", type=float, default=float("inf"))
    args = parser.parse_args()
    checkout.use_checkout_source()
    import torusclass.cli  # noqa: F401  (loads every module before wrapping)

    checkout.check_imported_from_checkout()
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.pass_index)
    clock = ScaledClock()
    if args.traced:
        # No clock ticks here: their reference loops would land inside spans.
        tracer = Tracer()
        tracer.install()
        try:
            record = run_pass(workload, clock, tracer, args.limit)
        finally:
            tracer.uninstall()
    else:
        tracer = None
        with clock:
            record = run_pass(workload, clock, limit=args.limit)
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["counts"] = dict(tracer.counts)
        record["self_s"] = dict(tracer.self_s)
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()
