"""quantlogic benchmark: one workload, measured for a fixed time, every result checked.

    python3 perfbench/run.py --workload eval-bulk --seed 1 --seconds 50 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and inputs go to ``.perfbench_work/`` at the repository root.

Load is a closed loop: one caller, one operation at a time, the next sent
when the previous one completes.

``--trace 0`` prints the end-to-end metrics.  The op cycle repeats, whole
cycles only, until ``--seconds`` have passed, so every operation runs many
times and has the same weight in the figures:

* ops_per_s: operations that passed their check, per second of operation
  time (checking is not timed);
* latency_p50_ms / latency_p90_ms: percentiles of the time of every executed
  operation (failed ones included);
* success_rate: operations that passed their check over operations attempted
  (the error rate is 1 - success_rate; failures are listed on stderr);
* setup_s: median of the set-ups (package import plus generating, writing
  and loading the workload's inputs) of the run.  The measured loop is cut
  into SEGMENTS; SETUP_REPS set-ups run before each segment and after the
  last, so that the median spans the same stretch of time as the other
  figures, and each segment runs the operations of its fresh set-up;
* peak_rss_mb: peak resident memory of this process.

Times are calibrated for machine speed (speed.py): between operations, and
around each set-up, the run times a fixed reference kernel that runs no
quantlogic code, and every operation's and set-up's time is scaled by the
kernel's reference time over its local median time.  The unscaled figures
are printed as a ``#`` line.

``--trace 1`` runs the workload untraced for UNTRACED_SHARE of ``--seconds``,
then traces it in two passes with the span recorder (tracer.py), set-up
included in each: a pass over every layer but extreal for LAYERS_SHARE of
``--seconds``, and a pass over the extreal layer alone for the same number of
operations.  It prints the per-layer metrics: totals over one traced set-up
and the ``trace.ops`` operations of a pass, the extreal figures from the
second pass and all others from the first.  Spans go to
``.perfbench_work/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

PERF = time.perf_counter
SEGMENTS = 4
SETUP_REPS = 3  # set-ups before each segment of the measured loop, and after the last
MIN_TAIL = 10  # samples required beyond the highest reported percentile
UNTRACED_SHARE = 0.3
LAYERS_SHARE = 0.25

import speed  # noqa: E402
import tracer  # noqa: E402  (stdlib only; safe before the program is found)

CAL_AROUND = 3  # kernel samples before and after each set-up


def measure(ops, seconds: float, cal, recorder=None, cycles: int | None = None) -> dict:
    """Closed loop over whole op cycles until `seconds` have passed, or for
    exactly `cycles` cycles, sampling the speed kernel between operations.

    Samples are kept in typed arrays so that the bookkeeping adds little to
    the process's peak memory however many operations a run completes.
    """
    latencies, starts, failures = array.array("d"), array.array("d"), []
    busy = 0.0
    deadline = PERF() + seconds
    i = 0
    while PERF() < deadline if cycles is None else i < cycles * len(ops):
        for op in ops:
            if recorder is not None:
                recorder.op = i
            cal.due()
            t0 = PERF()
            try:
                result, err = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, err = None, f"raised {type(exc).__name__}: {exc}"
            t1 = PERF()
            if err is None:
                err = op.check(result)
            latencies.append(t1 - t0)
            starts.append(t0)
            busy += t1 - t0
            if err is not None:
                failures.append(f"{op.label}: {err}")
            i += 1
    return {"latencies": latencies, "starts": starts, "failures": failures,
            "busy": busy, "cycles": i // len(ops)}


def calibrated(run: dict, cal) -> array.array:
    """The run's operation times at the reference machine speed."""
    return array.array("d", (d * cal.factor(t)
                             for d, t in zip(run["latencies"], run["starts"])))


def ops_per_s(run: dict, latencies) -> float:
    return (len(run["latencies"]) - len(run["failures"])) / math.fsum(latencies)


def percentiles(samples) -> tuple[float, float]:
    """p50 and p90 of samples."""
    if len(samples) < 2:
        return samples[0], samples[0]
    return (statistics.median(samples),
            statistics.quantiles(samples, n=10, method="inclusive")[8])


def setup(workload, cal) -> tuple[float, float]:
    """(start, duration) of one set-up, with kernel samples on both sides."""
    for _ in range(CAL_AROUND):
        cal.sample()
    t0 = PERF()
    workload.load_program()
    workload.prepare()
    t1 = PERF()
    for _ in range(CAL_AROUND):
        cal.sample()
    return t0, t1 - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    cal = speed.Calibrator()
    setups, segments, measured = [], [], 0.0
    for k in range(SEGMENTS):
        setups += [setup(workload, cal) for _ in range(SETUP_REPS)]
        t0 = PERF()
        segments.append(measure(workload.ops(traced=False),
                                (k + 1) * seconds / SEGMENTS - measured, cal))
        measured += PERF() - t0
    setups += [setup(workload, cal) for _ in range(SETUP_REPS)]
    run = {"latencies": array.array("d"), "starts": array.array("d"), "failures": []}
    for segment in segments:
        for key in run:
            run[key] += segment[key]
    latencies = calibrated(run, cal)
    p50, p90 = percentiles(latencies)
    tail = sum(t > p90 for t in latencies)
    if tail < MIN_TAIL:
        print(f"warning: {tail} samples beyond p90, fewer than {MIN_TAIL}", file=sys.stderr)
    attempted = len(latencies)
    values = {
        "ops_per_s": ops_per_s(run, latencies),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_rate": (attempted - len(run["failures"])) / attempted,
        "setup_s": statistics.median(d * cal.factor(t) for t, d in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_p50, raw_p90 = percentiles(run["latencies"])
    print(f"# unscaled: ops_per_s={ops_per_s(run, run['latencies']):.6g} "
          f"latency_p50_ms={raw_p50 * 1e3:.6g} latency_p90_ms={raw_p90 * 1e3:.6g} "
          f"setup_s={statistics.median(d for _, d in setups):.6g}; "
          f"{len(cal.costs)} kernel samples, median {statistics.median(cal.costs) * 1e3:.4g} ms "
          f"(reference {speed.REFERENCE_S * 1e3:.4g} ms)")
    return run, values


def traced_pass(workload, rec, targets, seconds: float, cal, cycles: int | None = None):
    """Set-up and operations with the functions of `targets` traced; the
    layers pass also counts the CLI's output bytes."""
    tracer.install(rec, targets)
    try:
        workload.prepare()
        top_before = rec.top_s
        run = measure(workload.ops(traced=targets is tracer.LAYERS), seconds, cal, rec, cycles)
        run["top_s"] = rec.top_s - top_before
    finally:
        tracer.uninstall(rec)
    return run


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    cal = speed.Calibrator()
    setup(workload, cal)
    plain = measure(workload.ops(traced=False), seconds * UNTRACED_SHARE, cal)
    layers, extreal = tracer.Recorder(), tracer.Recorder()
    traced = traced_pass(workload, layers, tracer.LAYERS, seconds * LAYERS_SHARE, cal)
    traced_x = traced_pass(workload, extreal, tracer.EXTREAL, 0.0, cal, traced["cycles"])
    plain_ops = ops_per_s(plain, calibrated(plain, cal))
    tracer.write_spans(os.path.join(WORK, f"spans-{workload.name}-{seed}.jsonl"),
                       layers, extreal)
    print(f"# extreal pass: tracing cost "
          f"{1.0 - ops_per_s(traced_x, calibrated(traced_x, cal)) / plain_ops:.3f} "
          f"of untraced ops_per_s")
    values = dict.fromkeys(tracer.metric_names(), 0)
    values.update(layers.metrics())
    values.update(extreal.metrics())
    values.update({
        "cli.import_s": getattr(workload, "cli_import_s", 0.0),
        "cli.stdout.bytes": getattr(workload, "stdout_bytes", 0),
        "trace.ops": len(traced["latencies"]),
        # operation time outside every span: the callers' own code
        "trace.unattributed_s": traced["busy"] - traced["top_s"],
        "trace.overhead_frac": 1.0 - ops_per_s(traced, calibrated(traced, cal)) / plain_ops,
    })
    run = {key: plain[key] + traced[key] + traced_x[key]
           for key in ("latencies", "failures")}
    return run, values


def main(argv=None) -> int:
    import workloads

    kinds = {w.name: w for w in (workloads.EvalBulk, workloads.SmallQueries)}
    ap = argparse.ArgumentParser(description="quantlogic benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(kinds))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quantlogic", "__init__.py")):
        print(f"error: no quantlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = kinds[args.workload](WORK, args.seed)

    if args.trace:
        run, values = per_layer(workload, args.seconds, args.seed)
    else:
        run, values = end_to_end(workload, args.seconds)
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        print(f"error: BENCHMARK.json names metrics the benchmark does not make: "
              f"{', '.join(unknown)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    failures = run["failures"]
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    attempted = len(run["latencies"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {len(failures)} failed, "
          f"error_rate={len(failures) / attempted:.6g}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"#   {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
