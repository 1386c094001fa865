"""Repository benchmark: one command per workload, tracing off or on.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_adapt_h2o --seed 1 --seconds 8 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs the same workload twice in one process,
once untraced and once with every layer's public entry points wrapped
(:mod:`tracing`), the traced run first for odd seeds.  It reports the
per-layer metrics, the tracing overhead (traced minus untraced time of
the timed part) and a self-test that both runs produced identical
outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads, the metrics and why each was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# imports happen before any timing; without the package sources this
# fails here, before a result is printed, and the process exits non-zero
import numpy as np  # noqa: E402

import repro  # noqa: E402,F401
from tracing import Tracer, install_layer_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _warm_up() -> None:
    """One-time interpreter warm-up, excluded from timing: touch the
    chemistry, mapping, FCI and serve code paths on a tiny problem."""
    from repro.chem.fci import exact_ground_energy
    from repro.serve.store import ProblemCache
    from repro.serve import JobSpec

    problem = ProblemCache().get(JobSpec(tenant="warmup", kind="vqe", molecule="h2"))
    exact_ground_energy(problem["hamiltonian"], num_particles=2, sz=0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, repeats: int):
    """Run set-up ``repeats`` times; keep the last context."""
    times, ctx = [], None
    for _ in range(repeats):
        if ctx is not None:
            workload.release(ctx)
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return ctx, times


def _judge(workload, ctx, out):
    return workload.check(ctx, out, workload.references(ctx, out))


def _report(violations, attempted: int):
    for op, msg in violations:
        print(f"CHECK FAILED [{op or 'run'}]: {msg}", file=sys.stderr)
    failed_ops = {op for op, _ in violations if op is not None}
    global_failures = sum(1 for op, _ in violations if op is None)
    return min(attempted, len(failed_ops) + global_failures)


def run_untraced(workload, seed: int, seconds: float):
    # a shared machine has slow phases lasting seconds, so the set-up
    # samples are split around the timed part instead of taken in a row
    before = (workload.setup_repeats + 1) // 2
    ctx, setup_times = _setup(workload, seed, before)
    out = workload.measure(ctx, seconds, once=False)
    violations = _judge(workload, ctx, out)
    spare, after_times = _setup(workload, seed, workload.setup_repeats - before)
    if spare is not None:
        workload.release(spare)
    setup_times += after_times
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    units = {
        "time_to_1mha_s": "s",
        "converged_campaigns_per_s": "1/s",
        "job_latency_p50_s": "s",
        "job_latency_p75_s": "s",
    }
    for name, unit in units.items():
        metrics[name] = (out["metrics"][name], unit)
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
    print(
        f"{workload.name}: setup_s samples {[round(t, 4) for t in setup_times]}, "
        f"timed part {out['timed_s']:.3f} s over {out['ops']} ops, "
        f"broker {out.get('broker')}",
        file=sys.stderr,
    )
    return metrics, out["ops"], violations


def _layer_metrics(tracer: Tracer, out, untraced_s: float):
    busy, self_s, calls, rows = tracer.busy(), tracer.self_time(), tracer.counts, tracer.rows
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for span in (
        "chem.run_rhf",
        "chem.hermitian_downfold",
        "chem.exact_ground_energy",
        "ir.PauliSum.to_sparse",
        "ir.CompiledPauliSum.expectations",
        "sim.GeneratorEvolution.apply",
        "sim.BatchedStatevectorSimulator.run_plan",
        "opt.AnsatzObjective.energy",
        "opt.AnsatzObjective.gradient",
        "opt.AnsatzObjective.energy_and_gradient",
        "core.AdaptVQE.step",
        "core.AdaptVQE.pool_gradients",
        "core.CampaignRunner.save_adapt_state",
        "serve.CampaignServer.tick",
        "serve.EvaluationBroker.pump",
        "serve.ProblemCache.get",
        "serve.Journal.append",
    ):
        put(f"{span}.busy_s", busy.get(span, 0.0), "s")
        put(f"{span}.calls", calls.get(span, 0), "count")
    for span in (
        "chem.exact_ground_energy",
        "core.AdaptVQE.step",
        "serve.CampaignServer.tick",
        "serve.EvaluationBroker.pump",
        "serve.ProblemCache.get",
    ):
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
    put("ir.PauliString.apply.calls", calls.get("ir.PauliString.apply", 0), "count")
    put(
        "sim.BatchedStatevectorSimulator.run_plan.rows",
        rows.get("sim.BatchedStatevectorSimulator.run_plan", 0),
        "count",
    )
    put("core.VQE.gradient.calls", calls.get("core.VQE.gradient", 0), "count")
    est = "serve.BrokeredEstimator.estimate_plan_many"
    grads = calls.get("core.VQE.gradient", 0)
    put("core.vqe.rows_per_iterate", rows.get(est, 0) / grads if grads else 0.0, "rows")
    put(f"{est}.wait_s", busy.get(est, 0.0), "s")
    put(f"{est}.rows", rows.get(est, 0), "count")
    hit = out.get("iterations_to_1mha")
    put("core.adapt.iterations_to_1mha", hit or 0, "count")
    broker = out.get("broker", {})
    put("serve.broker.waves", broker.get("waves", 0), "count")
    put("serve.broker.mean_occupancy", broker.get("mean_occupancy", 0.0), "rows")
    put("serve.ProblemCache.builds", out.get("problem_builds", 0), "count")
    waits = out.get("queue_wait") or [0.0]
    put("serve.queue_wait_p50_s", float(np.percentile(waits, 50)), "s")
    admitted = out.get("admitted", 0)
    put("serve.admitted", admitted, "count")
    put("serve.dedup_hits", out.get("dedup_hits", 0), "count")
    put("serve.dedup_ratio", out.get("dedup_hits", 0) / admitted if admitted else 0.0, "ratio")
    put("loadgen.lateness_max_s", max(out.get("lateness") or [0.0]), "s")
    traced_s = out.get("overhead_basis_s", out["timed_s"])
    put("trace.untraced_s", untraced_s, "s")
    put("trace.traced_s", traced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.wrapper_cost_s", tracer.wrapper_cost_s(), "s")
    put("trace.spans", len(tracer.spans), "count")
    return m


def run_traced(workload, seed: int, seconds: float):
    tracer = Tracer()

    def untraced():
        ctx, _ = _setup(workload, seed, 1)
        return ctx, workload.measure(ctx, seconds, once=True)

    def traced():
        install_layer_wrappers(tracer)
        try:
            return untraced()
        finally:
            tracer.restore()

    # the second run in a process finds warm caches and a grown heap;
    # which run goes second alternates with the seed's parity, so that
    # advantage cancels over seeds instead of always favouring tracing
    traced_first = seed % 2 == 1
    if traced_first:
        ctx_t, out_t = traced()
        ctx_u, out_u = untraced()
    else:
        ctx_u, out_u = untraced()
        ctx_t, out_t = traced()
    print(f"{workload.name}: traced run went {'first' if traced_first else 'second'}", file=sys.stderr)
    violations = _judge(workload, ctx_u, out_u) + _judge(workload, ctx_t, out_t)
    # self-test: tracing must not change what the program computes
    if not workload.same_outputs(out_u["outputs"], out_t["outputs"]):
        violations.append((None, "traced and untraced runs differ in energies or evaluation counts"))

    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"{workload.name}: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    metrics = _layer_metrics(tracer, out_t, out_u.get("overhead_basis_s", out_u["timed_s"]))
    return metrics, out_u["ops"] + out_t["ops"], violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _warm_up()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="state-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](scratch)
        if workload.seed_independent:
            print(f"{workload.name} is seed-independent; --seed {args.seed} changes nothing")
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, violations = runner(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = _report(violations, attempted)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not violations,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
