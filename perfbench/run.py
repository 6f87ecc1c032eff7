"""quiverglue benchmark: one seeded workload, checked and measured end to end or per layer.

    python3 perfbench/run.py --workload paper-fp|indec-q|candecomp-sweep \\
        --seed N --seconds T --trace 0|1

Run from the repository root; the program is imported from `src/`.  Load is
a closed loop with one client: one process runs one job at a time, and the
workload runs in a fresh child process (`worker.py`).

--trace 0 prints the end-to-end metrics: set-up time (fresh interpreter until
`quiverglue.cli` is imported and the fixtures are loaded, median of several
launches), then the medians over the passes the child fits into --seconds.
Every time metric is scaled to the reference host speed (`speed.py`); the
raw times are printed beside them and kept in the record.
--trace 1 runs pass 0 twice, each in a fresh child: once plain and once with
spans around every layer, and prints the per-layer metrics.  The last line of
stdout is one JSON object; the full record, with the environment, is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_LAUNCHES = 8  # after one unmeasured launch that compiles the bytecode
SETUP_PROBES = 25  # probes either side of a launch, to scale it
CHILD_TIMEOUT_S = 170
SETUP_PROBE = (
    "import quiverglue.cli\n"
    "from quiverglue import fixtures\n"
    "fixtures.all_quivers()\n"
    "[fixtures.load_rep(name) for name in fixtures.REP_FILES]\n"
    "print('ready', flush=True)\n"
)
# paper-fp's pass is three long pipelines; its latency is the pass's
# (so its p50 and p95 equal wall_s), not the middle pipeline's.
PASS_IS_ONE_JOB = {"paper-fp"}


def child_env():
    path = [str(ROOT / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def setup_seconds(env):
    """Seconds from spawning an interpreter until it reports ready: (raw, scaled)."""
    before = speed.probe_median(SETUP_PROBES)
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    host = (before + speed.probe_median(SETUP_PROBES)) / 2
    return elapsed, elapsed * speed.REFERENCE_PROBE_S / host


def run_worker(env, args, seconds, trace, spans=None):
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if spans:
        argv += ["--spans", str(spans)]
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, report, setups, scaled=True):
    """The end-to-end metrics: scaled to the reference speed, or raw."""
    passes = report["passes"]
    wall, cpu = ("scaled_wall_s", "scaled_cpu_s") if scaled else ("wall_s", "cpu_s")
    median_wall = statistics.median(p[wall] for p in passes)
    if args.workload in PASS_IS_ONE_JOB:
        p50 = p95 = median_wall
    else:
        pooled = [x for lat in report["scaled_latencies" if scaled else "latencies"] for x in lat]
        p50, p95 = percentile(pooled, 50), percentile(pooled, 95)
    return {
        "wall_s": (median_wall, "s"),
        "cpu_s": (statistics.median(p[cpu] for p in passes), "s"),
        "job_p50_ms": (1000 * p50, "ms"),
        "job_p95_ms": (1000 * p95, "ms"),
        "setup_s": (statistics.median(s[1] if scaled else s[0] for s in setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("coverage"):
        return "ratio"
    return "cells" if name.endswith("cells") else "count"


def per_layer(plain, traced):
    layers = traced["layers"]
    wall = traced["passes"][0]["wall_s"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - plain["passes"][0]["wall_s"]
    layers["trace.coverage"] = self_total / wall
    return {name: (value, layer_unit(name)) for name, value in sorted(layers.items())}


def probe_ms():
    """Median time of the speed probe now; a slow reading marks a busy host."""
    return 1000 * speed.probe_median(50)


def environment(load_before, probe_before):
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None  # a plain checkout has no .git; src_sha256 identifies the code then
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "probe_ms_before": probe_before,
        "probe_ms_after": probe_ms(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "quiverglue" / "cli.py").is_file():
        print("error: run from the repository root; src/quiverglue is missing", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    load_before, probe_before = os.getloadavg(), probe_ms()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        raw = {}
        if args.trace:
            plain = run_worker(env, args, 0, trace=0)
            report = run_worker(env, args, 0, trace=1, spans=stem.with_suffix(".spans.tsv"))
            metrics = per_layer(plain, report)
        else:
            setup_seconds(env)  # compiles bytecode in a fresh checkout
            # half the launches before the workload and half after, so that
            # their median spans the run rather than one moment of it
            setups = [setup_seconds(env) for _ in range(SETUP_LAUNCHES // 2)]
            report = run_worker(env, args, args.seconds, trace=0)
            setups += [setup_seconds(env) for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
            metrics = end_to_end(args, report, setups)
            raw = end_to_end(args, report, setups, scaled=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = report["attempted"], report["failures"]
    env_record = environment(load_before, probe_before)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as handle:
        record = {"args": vars(args), "environment": env_record, "metrics": metrics, "raw_metrics": raw, "worker": report}
        json.dump(record, handle, indent=1)

    print(
        f"{args.workload} seed {args.seed}: {len(report['passes'])} pass(es), {attempted} jobs, "
        f"{len(failures)} failed, failed_frac {len(failures) / attempted:.4f}"
    )
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}" + (f"  (raw {raw[name][0]:.6g})" if name in raw else ""))
    print("environment " + json.dumps(env_record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
