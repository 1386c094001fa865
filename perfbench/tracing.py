"""In-memory span tracing installed from outside the program.

The benchmark's traced run wraps the public functions of each layer at
their use sites (class attributes for methods, module attributes for
functions looked up through their module) and restores the originals
afterwards.  Nothing inside ``src/`` is changed.

Each wrapped call records one span ``(name, start, end, parent, thread)``
where ``parent`` is the index of the enclosing span on the same thread.
Hot leaf functions can be wrapped as counters only (``count_only``), so
millions of calls cost an increment instead of a span.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        # (name, start, end, parent_index, thread_ident)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.counter_names: set = set()

    # -- installation ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count_only: bool = False,
        rows: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``rows(*args, **kwargs)`` (optional) returns the number of work
        rows one call carries; their sum is reported as ``<name>.rows``.
        """
        original = getattr(owner, attr)
        if count_only:
            wrapper = self._counter(original, name)
            self.counter_names.add(name)
        else:
            wrapper = self._spanner(original, name, rows)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1  # racy under threads; only single-thread leaves use this
            return fn(*args, **kwargs)

        return counted

    def _spanner(
        self, fn: Callable, name: str, rows: Optional[Callable[..., int]]
    ) -> Callable:
        spans, local, lock = self.spans, self._local, self._lock
        counts, row_sums = self.counts, self.rows
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            thread = threading.get_ident()
            with lock:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent, thread))
                counts[name] += 1
                if rows is not None:
                    row_sums[name] += int(rows(*args, **kwargs))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, thread)

        return traced

    # -- aggregation ----------------------------------------------------------

    def busy(self) -> Dict[str, float]:
        """Summed wall time inside each span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> Dict[str, float]:
        """Busy time minus the time covered by direct child spans."""
        out = self.busy()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def wrapper_cost_s(self, calls: int = 10000) -> float:
        """The time the wrappers themselves added to this run: the
        recorded spans and counted calls, each times the cost of one
        wrapped call over the bare call, timed on a no-op method (best
        of five batches of ``calls``)."""

        class NoOp:
            def span(self):
                return None

            def count(self):
                return None

        def per_call(fn) -> float:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, (time.perf_counter() - t0) / calls)
            return best

        probe, obj = Tracer(), NoOp()
        bare = obj.span  # bound before wrapping: the original method
        probe.wrap(NoOp, "span", "probe.span")
        probe.wrap(NoOp, "count", "probe.count", count_only=True)
        try:
            base = per_call(bare)
            span_cost = per_call(obj.span) - base
            count_cost = per_call(obj.count) - base
        finally:
            probe.restore()
        counted = sum(self.counts[name] for name in self.counter_names)
        return len(self.spans) * span_cost + counted * count_cost

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (name, start, end, parent,
        thread) after a header line carrying the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), "rows": dict(self.rows)}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of chem, ir, sim, opt, core and serve."""
    import numpy as np

    import repro.chem.downfolding as downfolding
    import repro.chem.fci as fci
    import repro.chem.scf as scf
    from repro.core.adapt import AdaptVQE
    from repro.core.campaign import CampaignRunner
    from repro.core.vqe import VQE
    from repro.ir.compiled import CompiledPauliSum
    from repro.ir.pauli import PauliString, PauliSum
    from repro.opt.gradient import AnsatzObjective
    from repro.serve.broker import BrokeredEstimator, EvaluationBroker
    from repro.serve.journal import Journal
    from repro.serve.server import CampaignServer
    from repro.serve.store import ProblemCache
    from repro.sim.batched import BatchedStatevectorSimulator
    from repro.sim.evolution import GeneratorEvolution

    def plan_rows(_self, _plan, param_rows, *a, **k) -> int:
        return int(np.shape(param_rows)[0])

    def estimator_rows(_self, _plan, rows, *a, **k) -> int:
        return int(np.atleast_2d(np.asarray(rows)).shape[0])

    # chem: module attributes, looked up through their module by the
    # benchmark and by repro.serve.store's function-local imports
    tracer.wrap(scf, "run_rhf", "chem.run_rhf")
    tracer.wrap(downfolding, "hermitian_downfold", "chem.hermitian_downfold")
    tracer.wrap(fci, "exact_ground_energy", "chem.exact_ground_energy")
    # ir
    tracer.wrap(PauliSum, "to_sparse", "ir.PauliSum.to_sparse")
    tracer.wrap(PauliString, "apply", "ir.PauliString.apply", count_only=True)
    tracer.wrap(CompiledPauliSum, "expectations", "ir.CompiledPauliSum.expectations")
    # sim
    tracer.wrap(GeneratorEvolution, "apply", "sim.GeneratorEvolution.apply")
    tracer.wrap(
        BatchedStatevectorSimulator,
        "run_plan",
        "sim.BatchedStatevectorSimulator.run_plan",
        rows=plan_rows,
    )
    # opt
    tracer.wrap(AnsatzObjective, "energy", "opt.AnsatzObjective.energy")
    tracer.wrap(AnsatzObjective, "gradient", "opt.AnsatzObjective.gradient")
    tracer.wrap(
        AnsatzObjective, "energy_and_gradient", "opt.AnsatzObjective.energy_and_gradient"
    )
    # core
    tracer.wrap(AdaptVQE, "step", "core.AdaptVQE.step")
    tracer.wrap(AdaptVQE, "pool_gradients", "core.AdaptVQE.pool_gradients")
    tracer.wrap(VQE, "gradient", "core.VQE.gradient")
    tracer.wrap(CampaignRunner, "save_adapt_state", "core.CampaignRunner.save_adapt_state")
    # serve
    tracer.wrap(CampaignServer, "tick", "serve.CampaignServer.tick")
    tracer.wrap(EvaluationBroker, "pump", "serve.EvaluationBroker.pump")
    tracer.wrap(
        BrokeredEstimator,
        "estimate_plan_many",
        "serve.BrokeredEstimator.estimate_plan_many",
        rows=estimator_rows,
    )
    tracer.wrap(ProblemCache, "get", "serve.ProblemCache.get")
    tracer.wrap(Journal, "append", "serve.Journal.append")
