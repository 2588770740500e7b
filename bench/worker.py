"""One workload process: run a workload's passes for a time budget, report.

Started by ``run.py`` with the thread caps set; prints one JSON object on
its last stdout line.

Untraced run (``--trace 0``): passes run back to back until the next one
would end past ``--seconds`` (at least one pass).  Traced run
(``--trace 1``): untraced and traced passes alternate, so the traced pass
times can be compared with untraced ones taken in the same conditions.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import calibrate
import digest
from tracer import LAYERS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_KEPT = 20


def run_pass(workload: str, calls: list, reference: dict | None, tracer=None) -> dict:
    """Issue every call once, in order; time each call and check each output.

    The calibration kernel runs, outside the timed calls, before every
    ``stride``-th call: before each call, or 16 times a pass for long lists.
    """
    stride = max(1, len(calls) // 16)
    cal = []
    wall = 0.0
    failures = []
    failed = set()
    digests = {c.label: digest.Digest(c.kind) for c in calls}
    bytes_out = nonzero = 0
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if i % stride == 0:
            cal.append(calibrate.kernel())
        if tracer:
            tracer.current_request = i
        t0 = time.perf_counter()
        try:
            outcome = call.run()
        except Exception as exc:  # an unexpected exception is a failed call
            problems = [f"{type(exc).__name__}: {exc}"]
            outcome = None
        wall += time.perf_counter() - t0
        if outcome is not None:
            try:
                problems = call.check(outcome)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            digests[call.label].add(outcome.canonical, outcome.values, outcome.summable)
            if call.kind != "boundaries":
                bytes_out += len(outcome.canonical)
                nonzero += outcome.code != 0
        if problems:
            failed.add(i)
            failures.append(f"{call.label}: {problems[0]}")
    elapsed = time.perf_counter() - start
    digests = {k: d.result() for k, d in digests.items()}
    for label in digest.reference_failures(reference, digests) if reference else ():
        failures.append(f"{label}: output differs from the reference")
        failed.update(i for i, c in enumerate(calls) if c.label == label)
    return {
        "wall_s": wall,
        "wall_ref_s": wall * calibrate.speed_factor(cal, workload),
        "cal_s": cal,
        "elapsed_s": elapsed,
        "failed": len(failed),
        "failures": failures[:MAX_FAILURES_KEPT],
        "digests": digests,
        "cli_io": {"bytes_out": bytes_out, "nonzero_exits": nonzero},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where to write the traced run's spans")
    ap.add_argument("--record", help="run one pass and write its digests here as the reference")
    args = ap.parse_args(argv)

    import sirmap.cli
    import workloads

    if ROOT / "src" not in Path(sirmap.__file__).resolve().parents:
        raise SystemExit(f"sirmap imported from {sirmap.__file__}, not from {ROOT / 'src'}")
    calls = workloads.build(args.workload, args.seed)
    if args.record:
        p = run_pass(args.workload, calls, None)
        if p["failed"]:
            print("\n".join(p["failures"]), file=sys.stderr)
            return 1
        Path(args.record).write_text(json.dumps(p["digests"], indent=1, sort_keys=True) + "\n")
        return 0

    reference = digest.load_reference(args.workload, args.seed)
    tracer = None
    if args.trace:
        modules = {layer: sys.modules[f"sirmap.{layer}"] for layer in LAYERS}
        tracer = Tracer(modules, [sirmap.cli, workloads])

    plain, traced, layer_passes = [], [], []
    start = time.perf_counter()
    while True:
        if tracer and len(plain) > len(traced):
            first = len(tracer.t0)
            tracer.install()
            try:
                traced.append(run_pass(args.workload, calls, reference, tracer))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.pass_metrics(first, len(tracer.t0)))
        else:
            plain.append(run_pass(args.workload, calls, reference))
        done = plain + traced
        typical = statistics.median(p["elapsed_s"] for p in done)
        if (traced or not tracer) and time.perf_counter() - start + typical > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": [p["wall_s"] for p in plain],
        "wall_ref_s": [p["wall_ref_s"] for p in plain],
        "cal_s": [c for p in plain for c in p["cal_s"]],
        "calls_per_pass": len(calls),
        "attempted": len(calls) * len(done),
        "failed": sum(p["failed"] for p in done),
        "failures": [f for p in done for f in p["failures"]][:MAX_FAILURES_KEPT],
        "digests": done[0]["digests"],
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        cli_io = {k: sum(p["cli_io"][k] for p in traced) for k in ("bytes_out", "nonzero_exits")}
        metrics, samples, bases = layer_metrics(layer_passes, tracer.counts, cli_io)
        # in reference-speed seconds, like wall_s, so machine drift cancels
        traced_ref = [p["wall_ref_s"] for p in traced]
        metrics["trace.overhead_s"] = statistics.median(traced_ref) - statistics.median(result["wall_ref_s"])
        samples["trace.overhead_s"] = len(traced_ref) + len(plain)
        result.update(
            traced_wall_s=[p["wall_s"] for p in traced],
            per_layer=metrics,
            per_layer_samples=samples,
            rate_bases=bases,
            spans=len(tracer.t0),
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
