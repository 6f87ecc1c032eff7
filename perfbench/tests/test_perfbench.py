"""Self-test of the benchmark: traced counters repeat, and checks hold on other seeds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Takes about two minutes: two traced passes of every workload, in fresh
processes, plus a slice of every workload in-process.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3
# a seed no workload or bound was tuned on
FRESH_SEED = 424242
# jobs of each workload run on FRESH_SEED; paper-fp skips sub4-excseq (20 s)
SLICES = {"paper-fp": slice(1, None), "indec-q": slice(0, 60), "candecomp-sweep": slice(0, 80)}


def traced_pass(workload, seed):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])


def exact(layers):
    """The counters: every per-layer value that is not a time."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.fixture(scope="module")
def traced():
    return {w: (traced_pass(w, SEED), traced_pass(w, SEED)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(traced, workload):
    first, second = traced[workload]
    assert first["failures"] == [] and second["failures"] == []
    assert exact(first["layers"]) == exact(second["layers"])
    assert first["layers"]["cli.calls"] == first["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_self_times_cover_the_traced_pass(traced, workload):
    layers = run.per_layer(*traced[workload])
    assert abs(layers["trace.coverage"][0] - 1) < 0.05


def test_layer_shares(traced):
    fp = run.per_layer(*traced["paper-fp"])
    hot = sum(fp[f"{n}.self_s"][0] for n in ("reps.homext", "reps.d_matrix", "linalg.elim"))
    assert hot > 0.5 * fp["trace.wall_s"][0]
    q = run.per_layer(*traced["indec-q"])
    assert q["linalg.elim.fp_cells"][0] == 0 and q["linalg.elim.q_cells"][0] > 0


def test_benchmark_json_lists_the_printed_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(run.per_layer(*traced["indec-q"]))
    one = {"wall_s": 1.0, "cpu_s": 1.0, "scaled_wall_s": 1.0, "scaled_cpu_s": 1.0}
    report = {"passes": [one], "latencies": [[1.0]], "scaled_latencies": [[1.0]], "peak_rss_mb": 1.0}
    printed = run.end_to_end(argparse.Namespace(workload="indec-q"), report, [(1.0, 1.0)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in printed.items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_hold_on_a_fresh_seed(workload):
    with tempfile.TemporaryDirectory() as workdir:
        jobs = workloads.WORKLOADS[workload](FRESH_SEED, workdir)[SLICES[workload]]
        _, results = worker.run_jobs(jobs)
        assert worker.check_jobs(jobs, results) == []


def rejected(job, rc, out, err=""):
    return worker.check_jobs([job], [(rc, out, err, 0.0, 0.0)]) != []


def test_checks_reject_wrong_answers():
    with tempfile.TemporaryDirectory() as workdir:
        sweep = workloads.candecomp_sweep(0, workdir)[0]
        indec = next(j for j in workloads.indec_q(0, workdir) if "(decomposable)" in j.label)
    repro = workloads.paper_fp(0, None)[0]
    assert rejected(sweep, 0, "summand (9,9) x1")
    assert rejected(sweep, 2, "")
    assert rejected(indec, 0, "verdict: indecomposable")
    assert rejected(indec, 0, "verdict: unknown")
    assert rejected(indec, 0, "verdict: decomposable")  # no witness printed
    assert rejected(repro, 0, "reproduce: x\nstatus: failed")
    assert rejected(repro, None, "", "Traceback ...\nValueError: boom")  # the job raised


def test_scaling_divides_out_the_host_speed():
    sampler = speed.Sampler()
    # a host at half the reference speed, probed every 0.05 s for 10 s
    sampler.starts = [k * 0.05 for k in range(200)]
    sampler.seconds = [2 * speed.REFERENCE_PROBE_S] * 200
    own = sampler.own_seconds(1.0, 4.0)
    assert own == pytest.approx(60 * 2 * speed.REFERENCE_PROBE_S)
    assert sampler.scaled(1.0, 4.0) == pytest.approx((3.0 - own) / 2)
    # speed that changes at t = 5 s is applied to the seconds either side
    sampler.seconds = [speed.REFERENCE_PROBE_S if t < 5 else 3 * speed.REFERENCE_PROBE_S for t in sampler.starts]
    assert sampler.scaled(2.0, 8.0) == pytest.approx(3.0 + 3.0 / 3, rel=0.02)
