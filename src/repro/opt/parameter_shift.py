"""Parameter-shift gradients for circuit-mode VQE.

For a rotation gate exp(-i theta G / 2) whose generator G squares to
the identity (RX/RY/RZ/RZZ/RXX/RYY; the phase gate reduces to RZ up to
a global phase), the exact derivative is

    dE/dtheta = [E(theta + pi/2) - E(theta - pi/2)] / 2.

This is the gradient a *hardware* backend can evaluate — no state
access needed — and complements the simulator-only adjoint gradients
of ``repro.opt.gradient``.  The rule requires each named parameter to
appear in exactly one eligible rotation; ansatze like
``repro.ir.library.hardware_efficient_ansatz`` satisfy this by
construction, while trotterized UCCSD (one parameter feeding many
rotations) does not — those use the adjoint path.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliSum

__all__ = [
    "parameter_shift_gradient",
    "supports_parameter_shift",
    "batched_parameter_shift_gradient",
]

_SHIFT_GATES = {"rx", "ry", "rz", "p", "rzz", "rxx", "ryy"}


def _parameter_occurrences(circuit: Circuit) -> Dict[str, List[Parameter]]:
    occ: Dict[str, List[Parameter]] = {}
    for g in circuit.gates:
        for p in g.params:
            if isinstance(p, Parameter):
                if g.name not in _SHIFT_GATES:
                    occ.setdefault(p.name, []).append(None)  # ineligible
                else:
                    occ.setdefault(p.name, []).append(p)
    return occ


def supports_parameter_shift(circuit: Circuit) -> bool:
    """True if every parameter appears exactly once, in a gate the
    two-term shift rule covers."""
    occ = _parameter_occurrences(circuit)
    return all(len(v) == 1 and v[0] is not None for v in occ.values())


def _checked_params(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """``params`` as a float vector, after checking that the circuit
    satisfies the shift rule and that one value is given per parameter."""
    if not supports_parameter_shift(circuit):
        raise ValueError(
            "parameter-shift rule requires each parameter in exactly one "
            "RX/RY/RZ/P/RZZ/RXX/RYY gate; use adjoint gradients for "
            "product-of-exponential ansatze"
        )
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.num_parameters,):
        raise ValueError(f"expected {circuit.num_parameters} parameters")
    return params


def _shift_rows(circuit: Circuit, params: np.ndarray):
    """The 2m shifted parameter rows of the two-term rule, plus the
    per-parameter gate coefficients.

    Gate angle = coeff * p + offset, so shifting the *gate angle* by
    +/- pi/2 means shifting p by +/- pi / (2 coeff): row ``2k`` is
    ``params`` with parameter k shifted up, row ``2k + 1`` shifted down.
    A parameter with coeff 0 keeps both rows unshifted.  Evaluate the
    rows by any means and hand the energies to :func:`_shift_gradient`.
    """
    params = _checked_params(circuit, params)
    occ = _parameter_occurrences(circuit)
    coeffs = np.array([occ[name][0].coeff for name in circuit.parameters], dtype=float)
    rows = np.tile(params, (2 * len(coeffs), 1))
    k = np.flatnonzero(coeffs)
    shift = math.pi / (2.0 * coeffs[k])
    rows[2 * k, k] += shift
    rows[2 * k + 1, k] -= shift
    return rows, coeffs


def _shift_gradient(energies: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Combine the energies of :func:`_shift_rows`'s rows into the
    gradient; d(angle)/dp = coeff restores the chain rule."""
    energies = np.asarray(energies, dtype=float)
    grad = 0.5 * (energies[0::2] - energies[1::2]) * coeffs
    grad[coeffs == 0] = 0.0
    return grad


def parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
    estimate: Optional[Callable[[Circuit, PauliSum], float]] = None,
) -> np.ndarray:
    """Exact gradient via two energy evaluations per parameter.

    ``estimate`` defaults to the direct estimator; pass a sampling
    estimator's ``estimate`` method for the hardware-faithful variant.
    """
    if estimate is None:
        params = _checked_params(circuit, params)
        return _plan_parameter_shift_gradient(circuit, hamiltonian, params)

    # custom estimate callables (e.g. a sampling estimator's bound
    # method) take bound circuits; keep the faithful per-evaluation path
    rows, coeffs = _shift_rows(circuit, params)
    energies = np.zeros(len(rows))
    for k in np.flatnonzero(coeffs):
        for r in (2 * k, 2 * k + 1):
            energies[r] = estimate(circuit.bind(rows[r]), hamiltonian)
    return _shift_gradient(energies, coeffs)


def _apply_resolved_inverse(state, kind, payload, qubits, n) -> None:
    """Apply the inverse of a resolved plan op in place (all plan ops
    are unitary: diagonals conjugate, dense blocks conjugate-transpose)."""
    from repro.sim import kernels

    if kind == "x":
        kernels.apply_x(state, qubits[0], n)
    elif kind == "cx":
        kernels.apply_cx(state, qubits[0], qubits[1], n)
    elif kind == "diag1":
        kernels.apply_diag_1q(
            state, payload[0].conjugate(), payload[1].conjugate(), qubits[0], n
        )
    elif kind == "diag2":
        kernels.apply_diag_2q(
            state, [d.conjugate() for d in payload], qubits[0], qubits[1], n
        )
    elif kind == "diag_full":
        state *= payload.conj()
    else:  # dense
        m = np.asarray(payload).conj().T
        if len(qubits) == 1:
            kernels.apply_1q(state, m, qubits[0], n)
        elif len(qubits) == 2:
            kernels.apply_2q(state, m, qubits[0], qubits[1], n)
        else:
            kernels.apply_kq_dense(state, m, qubits, n)


# Diagonal derivative factors d(U)/d(theta) for the diagonal rotation
# gates; dense gates build -i/2 * G @ U from the generator below.
_DIAG_GENERATORS = {
    "rz": lambda th: (
        -0.5j * complex(math.cos(th / 2), -math.sin(th / 2)),
        0.5j * complex(math.cos(th / 2), math.sin(th / 2)),
    ),
    "p": lambda th: (0.0j, 1j * complex(math.cos(th), math.sin(th))),
    "rzz": lambda th: (
        -0.5j * complex(math.cos(th / 2), -math.sin(th / 2)),
        0.5j * complex(math.cos(th / 2), math.sin(th / 2)),
        0.5j * complex(math.cos(th / 2), math.sin(th / 2)),
        -0.5j * complex(math.cos(th / 2), -math.sin(th / 2)),
    ),
}

_XX = np.fliplr(np.eye(4)).astype(np.complex128)
_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    dtype=np.complex128,
)


def _du_bracket(lam, phi, name, theta, qubits, n) -> complex:
    """<lam| dU/dtheta |phi> evaluated on the op's index tables only."""
    from repro.ir.gates import GATE_SET
    from repro.utils.bitops import indices_1q, indices_2q

    diag = _DIAG_GENERATORS.get(name)
    if diag is not None:
        d = diag(theta)
        if len(d) == 2:
            i0, i1 = indices_1q(n, qubits[0])
            return d[0] * np.vdot(lam[i0], phi[i0]) + d[1] * np.vdot(
                lam[i1], phi[i1]
            )
        tables = indices_2q(n, qubits[0], qubits[1])
        return sum(
            d[s] * np.vdot(lam[tables[s]], phi[tables[s]]) for s in range(4)
        )
    if name in ("rx", "ry"):
        ch = 0.5 * math.cos(theta / 2)
        sh = 0.5 * math.sin(theta / 2)
        if name == "rx":
            du = np.array([[-sh, -1j * ch], [-1j * ch, -sh]])
        else:
            du = np.array([[-sh, -ch], [ch, -sh]])
        i0, i1 = indices_1q(n, qubits[0])
        return np.vdot(lam[i0], du[0, 0] * phi[i0] + du[0, 1] * phi[i1]) + np.vdot(
            lam[i1], du[1, 0] * phi[i0] + du[1, 1] * phi[i1]
        )
    # rxx / ryy: dU = -i/2 * G @ U with G the two-qubit Pauli generator
    g = _XX if name == "rxx" else _YY
    du = -0.5j * (g @ GATE_SET[name][2](theta))
    tables = indices_2q(n, qubits[0], qubits[1])
    amps = [phi[t] for t in tables]
    total = 0.0j
    for row in range(4):
        total += np.vdot(
            lam[tables[row]],
            sum(du[row, col] * amps[col] for col in range(4)),
        )
    return total


def _plan_parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
) -> np.ndarray:
    """The simulator fast path: reverse-mode evaluation of the shift
    derivatives on the compiled plan.

    For the gates the shift rule covers, the two-term formula *is* the
    analytic derivative, so the whole gradient can be read off one
    forward pass, one ``H|psi>`` application, and one backward sweep
    undoing ops pairwise on ``|phi>`` and ``|lambda> = H|psi>`` — the
    classic adjoint trick, here running on prepacked plan ops instead
    of ``Gate`` objects.  Cost is ~3 plan executions plus one observable
    apply, independent of parameter count, versus the naive ``2 m``
    bound circuit runs and ``2 m`` expectations.  Identical values to
    the two-term formula to machine precision.
    """
    from repro import obs
    from repro.ir.compiled import compile_observable
    from repro.sim.plan import compile_circuit

    names = circuit.parameters
    plan = compile_circuit(circuit)
    n = plan.num_qubits
    psi = np.zeros(plan.dim, dtype=np.complex128)
    psi[0] = 1.0
    plan.execute_slice(psi, params, 0)
    lam = compile_observable(hamiltonian).apply(psi)
    phi = psi  # backward sweep updates the forward buffer in place
    grad = np.zeros(len(names))
    for op in reversed(plan.ops):
        kind, payload = op.resolve(params)
        _apply_resolved_inverse(phi, kind, payload, op.qubits, n)
        if op.is_parametric:
            _, coeff, k, offset = op.param_refs[0]
            if coeff != 0.0:
                theta = coeff * params[k] + offset
                grad[k] += (
                    2.0
                    * coeff
                    * _du_bracket(
                        lam, phi, op.gate_name, theta, op.qubits, n
                    ).real
                )
        _apply_resolved_inverse(lam, kind, payload, op.qubits, n)
    if obs.enabled():
        obs.inc(
            "repro_plan_adjoint_gradients_total",
            help="Plan-based reverse-mode parameter-shift gradients",
        )
    return grad


def batched_parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
) -> np.ndarray:
    """Parameter-shift gradient with all 2m shifted evaluations run as
    ONE batched simulation (paper §6.2 batch execution, applied to the
    gradient workload).

    Numerically identical to :func:`parameter_shift_gradient`; the
    benchmark suite measures the batching speedup.
    """
    from repro.sim.batched import BatchedStatevectorSimulator
    from repro.sim.plan import compile_circuit

    rows, coeffs = _shift_rows(circuit, params)
    # the same compiled plan the scalar paths share (memoized on the
    # circuit): static segments pre-fused, diagonals pre-folded
    plan = compile_circuit(circuit)
    sim = BatchedStatevectorSimulator(circuit.num_qubits, len(rows))
    sim.run_plan(plan, rows)
    return _shift_gradient(sim.expectations(hamiltonian), coeffs)
