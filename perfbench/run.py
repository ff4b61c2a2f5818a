"""Benchmark of the specsource program: one workload per call.

    python3 perfbench/run.py --workload casework --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets up several times, then repeats whole rounds
of the workload until ``--seconds`` have passed, and prints the end-to-end
metrics.  With ``--trace 1`` it runs one untraced round, then one round
with spans recorded around the calls between the program's modules, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans of a traced run are written to ``.perfbench_out/<workload>/spans.json``.
"""

import os

# One BLAS thread: with the interpreter's own, the run stays within two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("casework", "study", "reanalysis")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed(func, *args) -> float:
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start


def end_to_end(run, import_s: float, setup_times) -> dict:
    """The run's end-to-end metrics.

    Times are medians of their samples.  Study calls report the fastest
    call: this machine's speed drifts by a third over tens of seconds, and
    the best of a few spread-out calls moves less than their median.
    """
    samples = run.samples
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "evaluate_s": (statistics.median(samples["evaluate_s"]), "s"),
        "study_cells_per_s": (max(samples["study_cells_per_s"]), "cells/s"),
        "reopen_s": (statistics.median(samples["reopen_s"]), "s"),
        "trace_panel_s": (statistics.median(samples["trace_panel_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure(workload, wl, seconds: float):
    setup_times = []
    for i in range(workload.setup_repeats):
        work = wl.fresh_dir(workload.run.work / f"setup{i}")
        setup_times.append(timed(workload.setup, work))
    workload.verify_setup()
    start = time.perf_counter()
    while True:
        workload.round()
        if time.perf_counter() - start >= seconds:
            break
    return setup_times


def traced(workload, wl, tracer) -> dict:
    """One untraced round, then one traced round; per-layer metrics and overhead."""
    import layers

    run = workload.run
    workload.setup(wl.fresh_dir(run.work / "untraced"))
    workload.verify_setup()
    plain = timed(workload.round)
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup(wl.fresh_dir(run.work / "traced"))
        with tracer.span("bench.round"):
            workload.round()
    finally:
        tracer.uninstall()
    traced_round = tracer.select("bench.round")[0].duration
    metrics = layers.span_metrics(tracer)
    metrics.update(layers.kernel_metrics(run.seed))
    case = run.quality.get(workload.main_case, {})
    metrics["gibbs.draw_file_bytes"] = (float(run.quality.get("draw_file_bytes", 0)), "bytes")
    metrics["gibbs.ess_min.defense"] = (run.quality.get("ess_min_defense", 0.0), "draws")
    metrics["evaluate.mc_se_log_v_full"] = (case.get("mc_se_log_v_full", 0.0), "nats")
    metrics["trace.untraced_round_s"] = (plain, "s")
    metrics["trace.overhead_s"] = (traced_round - plain, "s")
    (run.work / "spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import specsource.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import specsource from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import workloads as wl
    from tracing import Tracer

    run = wl.Run(seed=args.seed, work=wl.fresh_dir(wl.OUT / args.workload))
    workload = wl.WORKLOADS[args.workload](run)
    try:
        if args.trace:
            metrics = traced(workload, wl, Tracer())
            metrics["cli.import_s"] = (import_s, "s")
        else:
            metrics = end_to_end(run, import_s, measure(workload, wl, args.seconds))
    except wl.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
