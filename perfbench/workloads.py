"""The benchmark's three workloads.

Each workload is a class with the same four phases:

* ``setup(seed)`` — the work a user pays before the timed part on
  every run (chemistry and FCI reference for Fig. 5, server
  construction for the served workloads).  The runner repeats it and
  reports the median as ``setup_s``.
* ``measure(ctx, seconds, once)`` — the timed part; returns the
  end-to-end metrics plus the outputs the correctness checks need.
* ``references(ctx, out)`` — exact energies the checks compare
  against, computed after the timed part and outside ``setup_s``.
* ``check(ctx, out, refs)`` — every violated correctness condition,
  as ``(op, message)`` pairs (``op`` is ``None`` for whole-run checks).

The program only ever receives the generated molecule inputs and
:class:`repro.serve.JobSpec` submissions; the workload seed stays here.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.chem.downfolding as downfolding
import repro.chem.fci as fci
import repro.chem.scf as scf_mod
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2o
from repro.chem.pools import uccsd_pool
from repro.chem.reference import hartree_fock_state
from repro.core.adapt import AdaptVQE
from repro.ir.pauli import PauliSum
from repro.serve import CampaignServer, JobSpec, JobState, ServerConfig

MILLI_HARTREE = 1e-3
Violation = Tuple[Optional[str], str]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sector_fci(hamiltonian: PauliSum, electrons: int) -> float:
    """Reference FCI energy for the served workloads: the lowest
    eigenvalue of the qubit Hamiltonian in the N-electron, S_z = 0
    sector (even qubits alpha, odd beta), built term by term from
    P|k> = i^|x&z| (-1)^|z&k| |k^x>.  Independent of the program's
    FCI path and cheap, because only the sector's rows are built."""
    n = hamiltonian.num_qubits
    states = np.arange(1 << n, dtype=np.int64)
    alpha = sum(1 << q for q in range(0, n, 2))
    ones = np.bitwise_count
    keep = states[
        (ones(states) == electrons) & (ones(states & alpha) == ones(states & ~alpha))
    ]
    dim = keep.size
    columns = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for (x, z), coeff in hamiltonian.terms.items():
        rows = np.searchsorted(keep, keep ^ x)
        inside = (rows < dim) & (keep[np.minimum(rows, dim - 1)] == keep ^ x)
        signs = 1.0 - 2.0 * (ones(keep & z) & 1)
        value = coeff * 1j ** (ones(np.int64(x & z)) % 4)
        mat[rows[inside], columns[inside]] += value * signs[inside]
    return float(np.linalg.eigvalsh(mat)[0])


class _Workload:
    name = ""
    setup_repeats = 5

    def __init__(self, scratch: str):
        # every file a served workload writes lives under ``scratch``
        self.scratch = scratch

    def _state_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)

    def release(self, ctx: Dict[str, Any]) -> None:
        """Drop a set-up context that will not be measured."""

    def same_outputs(self, a, b) -> bool:
        """Whether two runs of one seed computed the same thing."""
        return a == b


# -- Fig. 5: ADAPT-VQE on the downfolded 12-qubit H2O -------------------------


class Fig5AdaptH2O(_Workload):
    """STO-3G H2O, O 1s downfolded to a 12-qubit H_eff, ADAPT-VQE on the
    UCCSD pool up to 25 iterations, stopping at 1 mHa against FCI.

    Seed-independent: the molecule and the solver are fixed."""

    name = "fig5_adapt_h2o"
    # each set-up is a full chemistry build plus FCI (10-17 s on two
    # cores); a third would push a full measurement round (4 + 22 x 3
    # runs) past its 3,420 s budget
    setup_repeats = 2
    max_iterations = 25
    seed_independent = True

    def setup(self, seed: int) -> Dict[str, Any]:
        # looked up through the modules so the traced run sees the calls
        scf = scf_mod.run_rhf(h2o())
        mh = build_molecular_hamiltonian(scf)
        folded = downfolding.hermitian_downfold(
            mh, scf.mo_energies, core_orbitals=[0], active_orbitals=[1, 2, 3, 4, 5, 6]
        )
        heff = folded.effective_hamiltonian.chop(1e-8)
        e_fci = fci.exact_ground_energy(heff, num_particles=8, sz=0)
        return {"heff": heff, "e_fci": e_fci}

    def _one_adapt(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        heff = ctx["heff"]
        # fresh objects per run: the compiled-observable caches live on
        # the PauliSum and generator instances, so a copy starts cold
        # exactly as a user's first ADAPT run does
        hamiltonian = PauliSum(heff.num_qubits, heff.terms)
        pool = uccsd_pool(12, 8)
        reference = hartree_fock_state(12, 8)
        t_hit = None
        t0 = time.perf_counter()
        adapt = AdaptVQE(
            hamiltonian,
            pool,
            reference,
            max_iterations=self.max_iterations,
            reference_energy=ctx["e_fci"],
            energy_tolerance=MILLI_HARTREE,
        )
        st = adapt.initial_state()
        while not st.converged and st.iteration < self.max_iterations:
            adapt.step(st)
            if t_hit is None and st.records and st.records[-1].error_vs_reference < MILLI_HARTREE:
                t_hit = time.perf_counter() - t0
        return {
            "result": adapt.result(st),
            "time_to_1mha_s": t_hit,
            "wall_s": time.perf_counter() - t0,
        }

    def measure(self, ctx: Dict[str, Any], seconds: float, once: bool) -> Dict[str, Any]:
        runs = []
        spent = 0.0
        while not runs or (not once and spent < seconds):
            run = self._one_adapt(ctx)
            runs.append(run)
            spent += run["wall_s"]
        hits = [r["time_to_1mha_s"] for r in runs if r["time_to_1mha_s"] is not None]
        walls = [r["wall_s"] for r in runs]  # each ADAPT run is one job
        return {
            "metrics": {
                "time_to_1mha_s": statistics.median(hits) if hits else float("nan"),
                "converged_campaigns_per_s": len(hits) / sum(hits) if hits else 0.0,
                "job_latency_p50_s": percentile(walls, 50),
                "job_latency_p75_s": percentile(walls, 75),
            },
            "timed_s": spent,
            "runs": runs,
            "ops": len(runs),
            "outputs": [
                (
                    [it.energy for it in r["result"].iterations],
                    r["result"].operator_labels,
                )
                for r in runs
            ],
            "iterations_to_1mha": runs[0]["result"].iterations_to_accuracy(MILLI_HARTREE),
        }

    def references(self, ctx: Dict[str, Any], out: Dict[str, Any]) -> Dict[str, Any]:
        return {"e_fci": ctx["e_fci"]}  # computed in set-up: the user pays it

    def check(self, ctx, out, refs) -> List[Violation]:
        bad: List[Violation] = []
        for k, run in enumerate(out["runs"]):
            op = f"adapt{k}"
            res = run["result"]
            if not res.iterations:
                bad.append((op, "no ADAPT iteration"))
                continue
            err = abs(res.energy - refs["e_fci"])
            if not err < MILLI_HARTREE:
                bad.append((op, f"final error {err * 1e3:.4f} mHa >= 1 mHa"))
            hit = res.iterations_to_accuracy(MILLI_HARTREE)
            if hit is None or not 10 <= hit <= self.max_iterations:
                bad.append((op, f"iterations to 1 mHa {hit} outside [10, 25]"))
            for i, it in enumerate(res.iterations, start=1):
                if it.num_parameters != i:
                    bad.append((op, f"iteration {i} has {it.num_parameters} parameters"))
            energies = [it.energy for it in res.iterations]
            if any(b > a + 1e-9 for a, b in zip(energies, energies[1:])):
                bad.append((op, "energies not monotone"))
            if res.iterations[0].error_vs_reference <= 1e-2:
                bad.append((op, "starting error below 10 mHa: downfolding suspect"))
        return bad


# -- served workloads ----------------------------------------------------------


def _stamp_after_tick(watch, t0, tick_start, now, first_run, done) -> None:
    """Record, per job, the start of the tick that dispatched it and the
    time it was first seen terminal (tick granularity is what a client
    polling the server observes)."""
    for job_id, job in watch.items():
        if job_id in done:
            continue
        if job_id not in first_run and (
            job.state == JobState.RUNNING or (job.terminal and not job.dedup_hit)
        ):
            first_run[job_id] = tick_start - t0
        if job.terminal:
            done[job_id] = now - t0


class ServeVqeFleetH4(_Workload):
    """Eight distinct-seed h4 VQE campaigns on one broker-on server with
    two ranks; the run ends when all campaigns have converged."""

    name = "serve_vqe_fleet_h4"
    setup_repeats = 15  # each set-up is about 0.2 s
    campaigns = 8
    seed_independent = False

    def setup(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        seeds = rng.choice(1 << 30, size=self.campaigns, replace=False)
        specs = [
            JobSpec(tenant=f"tenant{k}", kind="vqe", molecule="h4", seed=int(s))
            for k, s in enumerate(seeds)
        ]
        server = CampaignServer(self._state_dir(), ServerConfig(num_ranks=2))
        server.problems.get(specs[0])  # warm physics build, shared by all eight
        return {"server": server, "specs": specs}

    def release(self, ctx: Dict[str, Any]) -> None:
        ctx["server"].close()

    def measure(self, ctx: Dict[str, Any], seconds: float, once: bool) -> Dict[str, Any]:
        server = ctx["server"]
        t0 = time.perf_counter()
        watch = {job.job_id: job for job in map(server.submit, ctx["specs"])}
        first_run: Dict[str, float] = {}
        done: Dict[str, float] = {}
        while not server.idle:
            tick_start = time.perf_counter()
            server.tick()
            _stamp_after_tick(watch, t0, tick_start, time.perf_counter(), first_run, done)
        server.close()
        # all campaigns end inside one batched tick, so the tick end is
        # the same for all; each campaign's own convergence time is its
        # dispatch offset plus its worker's execution time
        converged = [first_run[j] + job.exec_s for j, job in watch.items()]
        makespan = max(converged)
        results = [
            server.store.get_result(job.spec.content_key()) or {} for job in watch.values()
        ]
        stats = server.broker.stats()
        return {
            "metrics": {
                "time_to_1mha_s": statistics.mean(converged),
                "converged_campaigns_per_s": sum(
                    j.state == JobState.SUCCEEDED for j in watch.values()
                ) / makespan,
                "job_latency_p50_s": percentile(converged, 50),
                "job_latency_p75_s": percentile(converged, 75),
            },
            "timed_s": makespan,
            "jobs": watch,
            "ops": len(watch),
            "outputs": [
                (j.state, j.energy, r.get("evaluations")) for j, r in zip(watch.values(), results)
            ],
            "queue_wait": list(first_run.values()),
            "admitted": sum(j.state != JobState.REJECTED for j in watch.values()),
            "broker": stats,
            "problem_builds": server.problems.builds,
            "dedup_hits": server.dedup_hits,
        }

    def references(self, ctx: Dict[str, Any], out: Dict[str, Any]) -> Dict[str, Any]:
        problem = ctx["server"].problems.get(ctx["specs"][0])
        return {
            "e_fci": sector_fci(problem["hamiltonian"], problem["num_electrons"]),
            "rows_per_evaluation": 2 * problem["ansatz"].num_parameters + 1,
        }

    def check(self, ctx, out, refs) -> List[Violation]:
        bad: List[Violation] = []
        for (state, energy, evals), job_id in zip(out["outputs"], out["jobs"]):
            if state != JobState.SUCCEEDED:
                bad.append((job_id, f"state {state}"))
                continue
            if not abs(energy - refs["e_fci"]) < MILLI_HARTREE:
                bad.append((job_id, f"energy {energy:.8f} not within 1 mHa of FCI"))
            if not evals:
                bad.append((job_id, "no evaluations recorded"))
        # the campaigns' recorded evaluation counts against the broker's
        # own row count: each evaluation is one fused 2P+1-row FD sweep
        recorded = sum(evals or 0 for _, _, evals in out["outputs"])
        rows = out["broker"]["evals_total"]
        if rows != recorded * refs["rows_per_evaluation"]:
            bad.append((None, f"broker ran {rows} rows for {recorded} evaluations"))
        return bad


class ServeMixedOpen(_Workload):
    """Open-loop mixed traffic from several tenants at a fixed rate.

    The job mix: an h2 VQE bond scan that every tenant submits (repeats
    hit dedup, neighbours warm-start), h4 ADAPT jobs and 12-qubit LiH
    ADAPT jobs at distinct geometries.  Job ``k`` is due at
    ``(k + 0.25 + u_k) / rate_per_s`` with a seeded jitter
    ``u_k`` in [-0.25, 0.25).  The schedule is cut into ``blocks`` equal
    blocks that interleave the job classes in one fixed pattern; the seed
    sets which job of a class fills each of its slots (the arrival
    order), the geometries and the jitter.

    The proportions are an assumption, not a measured traffic mix.  The
    h2 scan is the one of ``benchmarks/bench_serve_throughput.py``: four
    bond lengths, each submitted by three tenants.  The other 36 jobs
    are ADAPT jobs.  Each LiH job holds the server for about a second
    of problem build, so it and the jobs due during it are the slowest;
    three LiH jobs keep that group well below the 12 jobs beyond p75, so
    p75 reads one class instead of the edge between two.  The LiH cost
    stays gated through the mean latency and the busy-time rate."""

    name = "serve_mixed_open"
    setup_repeats = 7  # each set-up builds three molecule families
    seed_independent = False
    rate_per_s = 1.4
    blocks = 3  # of 16 jobs: 4 h2, 11 h4, 1 LiH
    tenants = ("alice", "bob", "carol")
    h2_geometries = 4  # each submitted by every tenant
    h4_jobs = 33
    lih_jobs = 3
    adapt_iterations = {"h4": 3, "lih": 3}
    # largest share of the correlation energy (E_HF - E_FCI) an ADAPT
    # job may leave after its iterations; measured on the geometry
    # ranges below: h4 0.33, LiH 0.10-0.12
    adapt_residual_max = {"h4": 0.40, "lih": 0.20}
    geometry_ranges = {"h2": (0.60, 1.00), "h4": (0.85, 0.99), "lih": (1.45, 1.75)}

    def schedule(self, seed: int) -> List[Tuple[float, JobSpec]]:
        rng = np.random.default_rng(seed)

        def geometries(molecule, n, step):
            lo, hi = self.geometry_ranges[molecule]
            grid = np.round(np.arange(lo, hi + 1e-9, step), 3)
            return [float(g) for g in rng.choice(grid, size=n, replace=False)]

        h2 = [
            JobSpec(tenant=tenant, kind="vqe", molecule="h2", geometry=g)
            for g in geometries("h2", self.h2_geometries, 0.05)
            for tenant in self.tenants
        ]
        classes = [[h2[i] for i in rng.permutation(len(h2))]]
        for molecule, n in (("h4", self.h4_jobs), ("lih", self.lih_jobs)):
            classes.append(
                [
                    JobSpec(
                        tenant=self.tenants[k % len(self.tenants)],
                        kind="adapt",
                        molecule=molecule,
                        geometry=g,
                        max_iterations=self.adapt_iterations[molecule],
                    )
                    for k, g in enumerate(geometries(molecule, n, 0.004))
                ]
            )
        # every block interleaves the classes in the same fixed pattern
        # (each slot goes to the class furthest behind its quota), so
        # every seed offers the same load over time
        quotas = [len(jobs) // self.blocks for jobs in classes]
        size = sum(quotas)
        pattern: List[int] = []
        for slot in range(size):
            lag = [q * (slot + 1) / size - pattern.count(c) for c, q in enumerate(quotas)]
            pattern.append(int(np.argmax(lag)))
        queues = [iter(jobs) for jobs in classes]
        order = [next(queues[c]) for _ in range(self.blocks) for c in pattern]
        jitter = rng.uniform(-0.25, 0.25, size=len(order))
        return [((k + 0.25 + jitter[k]) / self.rate_per_s, spec) for k, spec in enumerate(order)]

    def __init__(self, scratch: str):
        super().__init__(scratch)
        self._refs: Dict[Tuple[str, float], Tuple[float, float]] = {}

    def setup(self, seed: int) -> Dict[str, Any]:
        server = CampaignServer(self._state_dir(), ServerConfig(num_ranks=2))
        # warm build of every family the traffic uses, at the family's
        # default geometry, which no scheduled job uses: the served
        # problems are still built inside job latency
        for kind, molecule in (("vqe", "h2"), ("adapt", "h4"), ("adapt", "lih")):
            server.problems.get(JobSpec(tenant="warmup", kind=kind, molecule=molecule))
        return {"server": server, "schedule": self.schedule(seed)}

    def release(self, ctx: Dict[str, Any]) -> None:
        ctx["server"].close()

    def measure(self, ctx: Dict[str, Any], seconds: float, once: bool) -> Dict[str, Any]:
        server = ctx["server"]
        pending = list(ctx["schedule"])
        due: Dict[str, float] = {}
        watch: Dict[str, Any] = {}
        lateness: List[float] = []
        first_run: Dict[str, float] = {}
        done: Dict[str, float] = {}
        busy = 0.0  # wall time inside submit() and tick()
        t0 = time.perf_counter()
        k = 0
        while k < len(pending) or not server.idle:
            now = time.perf_counter() - t0
            while k < len(pending) and pending[k][0] <= now:
                due_s, spec = pending[k]
                t_submit = time.perf_counter()
                job = server.submit(spec)
                busy += time.perf_counter() - t_submit
                lateness.append(time.perf_counter() - t0 - due_s)
                due[job.job_id] = due_s
                watch[job.job_id] = job
                k += 1
            if server.idle:
                if k < len(pending):
                    time.sleep(max(0.0, pending[k][0] - (time.perf_counter() - t0)))
                continue
            tick_start = time.perf_counter()
            server.tick()
            tick_end = time.perf_counter()
            busy += tick_end - tick_start
            _stamp_after_tick(watch, t0, tick_start, tick_end, first_run, done)
        server.close()
        latency = {j: done[j] - due[j] for j in watch}
        latencies = list(latency.values())
        succeeded = sum(j.state == JobState.SUCCEEDED for j in watch.values())
        return {
            # the arrival schedule fixes the makespan below saturation,
            # so no gated metric uses it: job latency and the server's
            # busy time are what the program decides
            "metrics": {
                "time_to_1mha_s": statistics.mean(latencies),
                "converged_campaigns_per_s": succeeded / busy,
                "job_latency_p50_s": percentile(latencies, 50),
                "job_latency_p75_s": percentile(latencies, 75),
            },
            "timed_s": max(done.values()) - min(due.values()),
            # tracing overhead shows in the time jobs take, so it is
            # judged on summed latency
            "overhead_basis_s": sum(latencies),
            "jobs": watch,
            "ops": len(watch),
            "outputs": [
                (j.spec.kind, j.spec.molecule, j.spec.geometry, j.state, j.energy)
                for j in watch.values()
            ],
            "latency": latency,
            "queue_wait": [first_run[j] - due[j] for j in first_run],
            "lateness": lateness,
            "broker": server.broker.stats(),
            "problem_builds": server.problems.builds,
            "dedup_hits": server.dedup_hits,
            "admitted": sum(j.state != JobState.REJECTED for j in watch.values()),
        }

    def same_outputs(self, a, b) -> bool:
        """States and problems must match exactly.  Energies match to
        1e-6 Ha: an h2 job warm-starts from whichever scan neighbours
        had converged when it was dispatched, which the open loop's
        timing decides, so its optimizer path may differ slightly."""
        def close(e, f):
            return e == f or (e is not None and f is not None and abs(e - f) < 1e-6)

        return len(a) == len(b) and all(
            x[:-1] == y[:-1] and close(x[-1], y[-1]) for x, y in zip(a, b)
        )

    def references(self, ctx: Dict[str, Any], out: Dict[str, Any]) -> Dict[str, Any]:
        """FCI and HF energy per distinct problem, from the problems the
        server built (so the reference sees exactly the served Hamiltonian)."""
        refs = self._refs  # kept across the two runs of a traced run
        for job in out["jobs"].values():
            key = (job.spec.molecule, job.spec.geometry)
            if key not in refs:
                problem = ctx["server"].problems.get(job.spec)
                e_fci = sector_fci(problem["hamiltonian"], problem["num_electrons"])
                refs[key] = (e_fci, problem["scf_energy"])
        return refs

    def check(self, ctx, out, refs) -> List[Violation]:
        bad: List[Violation] = []
        for job_id, job in out["jobs"].items():
            if job.state != JobState.SUCCEEDED:
                bad.append((job_id, f"state {job.state} ({job.detail})"))
                continue
            e_fci, e_hf = refs[(job.spec.molecule, job.spec.geometry)]
            if job.spec.kind == "vqe":
                if not abs(job.energy - e_fci) < MILLI_HARTREE:
                    bad.append((job_id, f"VQE energy {job.energy:.8f} not within 1 mHa of FCI"))
            # ADAPT: variational, and leaves at most its class's share
            # of the correlation energy after its few iterations
            elif not (
                e_fci - 1e-8
                <= job.energy
                <= e_fci + self.adapt_residual_max[job.spec.molecule] * (e_hf - e_fci)
            ):
                bad.append((job_id, f"ADAPT energy {job.energy:.8f} outside tolerance"))
        repeats = self.h2_geometries * (len(self.tenants) - 1)
        if out["dedup_hits"] != repeats:
            bad.append((None, f"dedup hits {out['dedup_hits']} != {repeats} repeats"))
        return bad


WORKLOADS = {cls.name: cls for cls in (Fig5AdaptH2O, ServeVqeFleetH4, ServeMixedOpen)}
