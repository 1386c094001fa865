"""Tests for the batched statevector simulator and batched gradients
(paper §6.2 batch execution)."""

import numpy as np
import pytest

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.library import hardware_efficient_ansatz
from repro.ir.pauli import PauliSum
from repro.opt.parameter_shift import (
    batched_parameter_shift_gradient,
    parameter_shift_gradient,
)
from repro.sim.batched import BatchedStatevectorSimulator
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator


def reference_states(circuit, rows):
    """One-at-a-time bind+run execution for comparison."""
    return np.array(
        [
            StatevectorSimulator(circuit.num_qubits).run(circuit.bind(row)).copy()
            for row in rows
        ]
    )


def run_batched(circuit, rows):
    """Execute ``circuit``'s compiled plan over the (B, P) ``rows``."""
    rows = np.asarray(rows, dtype=float)
    sim = BatchedStatevectorSimulator(circuit.num_qubits, rows.shape[0])
    sim.run_plan(compile_circuit(circuit), rows)
    return sim


class TestBatchedSimulator:
    def test_fixed_gates_broadcast(self):
        c = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        sim = run_batched(c, np.zeros((4, 0)))
        for b in range(4):
            assert np.isclose(abs(sim.states[b, 0]) ** 2, 0.5)
            assert np.isclose(abs(sim.states[b, 7]) ** 2, 0.5)

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz", "p"])
    def test_parameterized_1q_gates(self, gate, rng):
        c = Circuit(2).h(0).h(1)
        c.add(gate, [0], Parameter("a"))
        c.cx(0, 1)
        rows = rng.uniform(-np.pi, np.pi, size=(5, 1))
        sim = run_batched(c, rows)
        assert np.allclose(sim.states, reference_states(c, rows), atol=1e-10)

    @pytest.mark.parametrize("gate", ["rzz", "rxx", "ryy"])
    def test_parameterized_2q_gates(self, gate, rng):
        c = Circuit(3).h(0).h(2)
        c.add(gate, [0, 2], Parameter("b", coeff=0.5, offset=0.1))
        rows = rng.uniform(-2, 2, size=(4, 1))
        sim = run_batched(c, rows)
        assert np.allclose(sim.states, reference_states(c, rows), atol=1e-10)

    def test_hea_batch_matches_serial(self, rng):
        ansatz = hardware_efficient_ansatz(4, layers=2)
        rows = rng.uniform(-np.pi, np.pi, size=(6, ansatz.num_parameters))
        sim = run_batched(ansatz, rows)
        assert np.allclose(sim.states, reference_states(ansatz, rows), atol=1e-9)

    def test_batched_expectations(self, rng):
        ansatz = hardware_efficient_ansatz(3, layers=1)
        rows = rng.uniform(-1, 1, size=(4, ansatz.num_parameters))
        h = PauliSum.from_label_dict({"ZZI": 0.5, "IXX": -0.7, "YIY": 0.2})
        got = run_batched(ansatz, rows).expectations(h)
        ref = reference_states(ansatz, rows)
        from repro.sim.expectation import expectation_direct

        for b in range(len(rows)):
            assert np.isclose(got[b], expectation_direct(ref[b], h), atol=1e-10)

    def test_missing_parameter_rejected(self):
        c = Circuit(1).rz(Parameter("x"), 0)
        sim = BatchedStatevectorSimulator(1, 2)
        with pytest.raises(ValueError, match="shape"):
            sim.run_plan(compile_circuit(c), np.zeros((2, 0)))

    def test_wrong_vector_length_rejected(self):
        c = Circuit(1).rz(Parameter("x"), 0)
        sim = BatchedStatevectorSimulator(1, 2)
        with pytest.raises(ValueError, match="shape"):
            sim.run_plan(compile_circuit(c), np.zeros((3, 1)))

    def test_norms_preserved(self, rng):
        ansatz = hardware_efficient_ansatz(3, layers=2)
        rows = rng.uniform(-np.pi, np.pi, size=(3, ansatz.num_parameters))
        norms = np.linalg.norm(run_batched(ansatz, rows).states, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)


class TestBatchedParameterShift:
    def test_matches_serial_gradient(self, rng):
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.scf import run_rhf

        hq = build_molecular_hamiltonian(run_rhf(h2())).to_qubit()
        ansatz = hardware_efficient_ansatz(4, layers=1)
        x = rng.normal(scale=0.4, size=ansatz.num_parameters)
        serial = parameter_shift_gradient(ansatz, hq, x)
        batched = batched_parameter_shift_gradient(ansatz, hq, x)
        assert np.allclose(serial, batched, atol=1e-10)

    def test_rejects_unsupported_circuit(self):
        from repro.chem.uccsd import build_uccsd_circuit

        circuit = build_uccsd_circuit(4, 2).circuit
        h = PauliSum.from_label_dict({"ZIII": 1.0})
        with pytest.raises(ValueError):
            batched_parameter_shift_gradient(
                circuit, h, np.zeros(circuit.num_parameters)
            )
