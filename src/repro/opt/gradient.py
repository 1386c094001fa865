"""Gradients for product-of-exponentials ansatze.

``AnsatzObjective`` binds (reference state, generator list, observable)
into an energy function plus two gradient modes:

* **adjoint** — the reverse-mode statevector gradient: one forward
  evolution plus one backward sweep yields the full gradient at a cost
  of ~3 evolutions total, independent of parameter count.  This is the
  simulator-only trick that makes the classical optimization loop
  (paper §6.2's acknowledged bottleneck) tractable at scale.
* **finite difference** — central differences; used as the reference
  implementation in tests and as a fallback for non-product ansatze.

Derivation of the adjoint sweep for E(theta) = <ref|U^dag H U|ref>,
U = U_m ... U_1, U_k = exp(theta_k A_k):

    dE/dtheta_k = 2 Re <lambda_k| A_k |phi_k>,
    phi_k = U_k ... U_1 |ref>,   lambda_k = U_{k+1}^dag ... U_m^dag H U |ref>,

computed by one backward pass applying U_k^dag to both vectors.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.sim.evolution import GeneratorEvolution

__all__ = ["AnsatzObjective", "finite_difference_gradient"]


def finite_difference_gradient(
    fun: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient (2m evaluations)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        grad[k] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return grad


class AnsatzObjective:
    """Energy and analytic gradient of a product-of-exponentials ansatz.

    Parameters
    ----------
    reference_state:
        Dense statevector the ansatz starts from (e.g. Hartree–Fock).
    generators:
        Anti-Hermitian ``PauliSum`` generators; parameter k multiplies
        generator k.
    hamiltonian:
        Hermitian observable.
    """

    def __init__(
        self,
        reference_state: np.ndarray,
        generators: Sequence[PauliSum],
        hamiltonian: PauliSum,
    ):
        self.reference = np.asarray(reference_state, dtype=np.complex128)
        self.hamiltonian = hamiltonian
        # x-mask-batched observable: H|psi> in the adjoint sweep costs
        # one pass per distinct x-mask rather than per term, and the
        # compiled form is shared across the thousands of energy /
        # gradient calls one optimization makes (repro.ir.compiled).
        self._compiled_h = compile_observable(hamiltonian)
        self.evolutions = [GeneratorEvolution(g) for g in generators]
        self.num_parameters = len(self.evolutions)
        self.energy_evaluations = 0
        self.gradient_evaluations = 0
        # prefix-state reuse across consecutive prepare_state calls
        # (same protocol as repro.sim.plan: states parked at factor
        # boundaries, budgeted through PostAnsatzCache accounting);
        # built lazily to keep the opt -> core import edge out of
        # module load.
        self._prefix_cache = None
        self._last_params: Optional[np.ndarray] = None

    def _get_prefix_cache(self):
        if self._prefix_cache is None:
            from repro.core.cache import PostAnsatzCache

            self._prefix_cache = PostAnsatzCache(max_entries=8)
        return self._prefix_cache

    @staticmethod
    def _prefix_key(k: int, params: np.ndarray) -> np.ndarray:
        key = np.empty(k + 1)
        key[0] = float(k)
        key[1:] = params[:k]
        return key

    def prepare_state(self, params: np.ndarray) -> np.ndarray:
        """|psi(theta)> = prod_k exp(theta_k A_k) |ref> (k ascending).

        Consecutive calls reuse parked intermediate states: the state
        after factors ``0..k-1`` depends only on ``params[:k]``, so when
        a call changes only a parameter suffix (the parameter-shift /
        pool-screening access pattern) evolution resumes from the
        longest parked prefix instead of replaying every factor.
        """
        params = np.asarray(params, dtype=float)
        if len(params) != self.num_parameters:
            raise ValueError("parameter count mismatch")
        m = self.num_parameters
        cache = self._get_prefix_cache()
        start = 0
        state: Optional[np.ndarray] = None
        for k in range(m, 0, -1):
            snap = cache.get(self._prefix_key(k, params))
            if snap is not None:
                start, state = k, snap
                break
        if state is None:
            state = self.reference.copy()
        if start and obs.enabled():
            obs.inc(
                "repro_plan_prefix_resumes_total",
                help="Plan executions resumed from a parked prefix state",
            )
            obs.inc(
                "repro_plan_prefix_ops_skipped_total",
                start,
                help="Kernel ops skipped via prefix-state reuse",
                labels={"engine": "generator"},
            )
        park = {m}
        last = self._last_params
        if last is not None and last.shape == params.shape:
            changed = np.nonzero(params != last)[0]
            if changed.size:
                park.add(int(changed[0]))
        for k in range(start, m):
            if k in park and k > start:
                # GeneratorEvolution.apply returns fresh arrays, so
                # intermediate states park without copying.
                cache.put(self._prefix_key(k, params), state)
            state = self.evolutions[k].apply(state, float(params[k]))
        if start == m:
            state = state.copy()  # full hit: never hand out the cached array
        else:
            cache.put(self._prefix_key(m, params), state.copy())
        self._last_params = params.copy()
        return state

    def energy(self, params: np.ndarray) -> float:
        self.energy_evaluations += 1
        with obs.span("opt.objective_energy", parameters=self.num_parameters):
            state = self.prepare_state(np.asarray(params, dtype=float))
            val = self._compiled_h.expectation(state)
        return float(val.real)

    def gradient(self, params: np.ndarray) -> np.ndarray:
        """Adjoint-mode gradient: O(1) extra evolutions, exact."""
        self.gradient_evaluations += 1
        with obs.span("opt.objective_gradient", parameters=self.num_parameters):
            return self._adjoint(np.asarray(params, dtype=float))[1]

    def energy_and_gradient(self, params: np.ndarray):
        """Single-pass convenience for optimizers wanting both."""
        energy, grad = self._adjoint(np.asarray(params, dtype=float))
        self.energy_evaluations += 1
        self.gradient_evaluations += 1
        return energy, grad

    def _adjoint(self, params: np.ndarray):
        """One forward evolution, one ``H|psi>`` and one backward sweep;
        returns ``(energy, gradient)``."""
        psi = self.prepare_state(params)
        lam = self._compiled_h.apply(psi)
        energy = float(np.real(np.vdot(psi, lam)))
        phi = psi
        grad = np.zeros(self.num_parameters)
        for k in range(self.num_parameters - 1, -1, -1):
            ev = self.evolutions[k]
            grad[k] = 2.0 * np.real(np.vdot(lam, ev.apply_generator(phi)))
            phi = ev.apply(phi, -params[k])
            lam = ev.apply(lam, -params[k])
        return energy, grad
