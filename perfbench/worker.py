"""Run one workload in this fresh process and print its measurements as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1

Untraced (--trace 0): passes over the job list, at least one, for as many
passes as bring the run nearest to --seconds, with the host's speed sampled
throughout (`speed.Sampler`); every time is reported raw and scaled to the
reference speed.  Pass k runs with program seed `pass_seed(N, k)`, so no
pass repeats another's inputs.  Traced (--trace 1): exactly pass 0, with
spans and no sampler, so that the counters of two runs with one seed are
comparable exactly.  Inputs are built and outputs checked outside the timed
part of a pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads


def pass_seed(seed, k):
    return seed + 1_000_003 * k


def run_jobs(jobs):
    """Run every job through cli.main; returns (cpu_s, [(rc, stdout, stderr, start, end)])."""
    from quiverglue import cli

    results = []
    cpu0 = time.process_time()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(job.argv))
        except Exception:  # a crashing job is a failed job, never a crashed run
            rc = None
            err.write(traceback.format_exc())
        results.append((rc, out.getvalue(), err.getvalue(), start, time.perf_counter()))
    return time.process_time() - cpu0, results


def check_jobs(jobs, results):
    """Failure reasons, one per failed job, as 'label: reason'."""
    failures = []
    for job, (rc, out, err, *_) in zip(jobs, results):
        if rc is None:
            reason = "raised " + err.strip().splitlines()[-1]
        else:
            try:
                reason = job.check(rc, out)
            except Exception as exc:  # unparsable output
                reason = f"output check raised {exc!r}"
        if reason is not None:
            failures.append(f"{job.label}: {reason}")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the span records of a traced pass")
    args = parser.parse_args()
    build = workloads.WORKLOADS[args.workload]

    passes, spans, failures = [], [], []
    attempted = 0
    report = {}
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    sampler = None if args.trace else speed.Sampler()
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="work-", dir=out) as workdir:
        if sampler:
            sampler.start()
        try:
            while True:
                jobs = build(pass_seed(args.seed, len(passes)), workdir)
                if args.trace:
                    tracer = tracing.Tracer()
                    tracing.install(tracer)
                cpu, results = run_jobs(jobs)
                passes.append({"cpu_s": cpu})
                spans.append([(r[3], r[4]) for r in results])
                attempted += len(jobs)
                failures += check_jobs(jobs, results)
                if args.trace:
                    report["layers"] = tracing.layer_metrics(tracer)
                    if args.spans:
                        tracing.write_spans(tracer, args.spans)
                    break
                # stop where the run ends nearest to --seconds
                used = time.perf_counter() - began
                if used + used / len(passes) / 2 >= args.seconds:
                    break
        finally:
            if sampler:
                sampler.stop()
    latencies, scaled_latencies = [], []
    for record, jobs in zip(passes, spans):
        start, end = jobs[0][0], jobs[-1][1]
        own = sampler.own_seconds(start, end) if sampler else 0.0
        record["wall_s"] = end - start - own
        record["cpu_s"] -= own  # the probes are pure computation
        latencies.append([e - s - (sampler.own_seconds(s, e) if sampler else 0.0) for s, e in jobs])
        if sampler:
            record["scaled_wall_s"] = sampler.scaled(start, end)
            record["scaled_cpu_s"] = record["cpu_s"] * record["scaled_wall_s"] / record["wall_s"]
            scaled_latencies.append([sampler.scaled(s, e) for s, e in jobs])
    if sampler:
        report["probe_s"] = statistics.quantiles(sampler.seconds, n=4)
    report.update(
        passes=passes,
        latencies=latencies,
        scaled_latencies=scaled_latencies,
        attempted=attempted,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
