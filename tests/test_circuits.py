"""Circuit IR, builders, and cost-model tests against dense oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import circuit_unitary, dense_sum, random_sum
from gsee.circuits import (
    AnsatzSpec,
    Circuit,
    Gate,
    hea_ansatz,
    trotter_step,
    two_qubit_depth,
)
from gsee.pauli import PauliString, PauliSum


def pexp(label: str, angle: float) -> Gate:
    s = PauliString.from_label(label)
    return Gate("pauliexp", tuple(s.support), angle=angle, pauli=s)


class TestGateValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("cnot", (0, 1))
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("cpauliexp", (2, 0), angle=0.1,
                 pauli=PauliString.from_label("X0"))
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("sdg", (0,))

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError, match="repeated qubit"):
            Gate("zzphase", (1, 1), angle=0.3)

    def test_one_qubit_kinds_enforce_arity(self):
        with pytest.raises(ValueError):
            Gate("h", (0, 1))

    def test_exponential_kinds_need_string(self):
        with pytest.raises(ValueError, match="requires a Pauli string"):
            Gate("pauliexp", (0,), angle=0.1)

    def test_gate_qubits_must_match_support(self):
        s = PauliString.from_label("X0 Z2")
        with pytest.raises(ValueError, match="support"):
            Gate("pauliexp", (0, 1), angle=0.1, pauli=s)

    def test_angle_and_param_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Gate("rx", (0,), angle=0.1, param=0)
        with pytest.raises(ValueError):
            Gate("rx", (0,))

    def test_fixed_kinds_take_no_angle(self):
        with pytest.raises(ValueError, match="takes no angle"):
            Gate("h", (0,), angle=0.1)


class TestCircuit:
    def test_register_bound_enforced(self):
        with pytest.raises(ValueError, match="outside register"):
            Circuit(1, [Gate("rx", (1,), angle=0.1)])

    def test_param_ids_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            Circuit(1, [Gate("rx", (0,), param=1)])

    def test_bind_substitutes_every_parameter(self):
        c = Circuit(2, [Gate("rx", (0,), param=0), Gate("zzphase", (0, 1), param=1)])
        b = c.bind([0.3, -0.7])
        assert b.n_params == 0
        assert [g.angle for g in b.gates] == [0.3, -0.7]
        with pytest.raises(ValueError, match="parameter values"):
            c.bind([0.3])



class TestTrotterStep:
    def test_commuting_terms_reproduce_exact_exponential(self):
        h = PauliSum(
            2,
            {
                PauliString.from_label(""): 0.7,
                PauliString.from_label("Z0"): -0.4,
                PauliString.from_label("Z0 Z1"): 1.1,
            },
        )
        tau = 0.37
        u = circuit_unitary(trotter_step(h, tau))
        exact = expm(-1j * tau * dense_sum(h))
        assert np.linalg.norm(u - exact) < 1e-12

    def test_fragments_ordered_by_descending_norm(self):
        h = PauliSum(
            2,
            {
                PauliString.from_label("X0"): 0.1,
                PauliString.from_label("Z0 Z1"): 1.0,
                PauliString.from_label("Z0"): 0.5,
            },
        )
        gates = trotter_step(h, 0.1).gates
        # the commuting Z fragment has 1-norm 1.5 and must come first
        assert {g.pauli.to_label() for g in gates[:2]} == {"Z0", "Z0 Z1"}
        assert gates[2].pauli.to_label() == "X0"

    def test_first_order_error_scales_quadratically(self):
        rng = np.random.default_rng(7)
        h = random_sum(rng, 3, 6)
        dense = dense_sum(h)
        for tau in (0.2, 0.1):
            errs = []
            for t in (tau, tau / 2):
                u = circuit_unitary(trotter_step(h, t))
                errs.append(np.linalg.norm(u - expm(-1j * t * dense), ord=2))
            assert 3.5 < errs[0] / errs[1] < 4.5

    def test_non_hermitian_rejected(self):
        h = PauliSum(1, {PauliString.from_label("X0"): 1j})
        with pytest.raises(ValueError, match="Hermitian"):
            trotter_step(h, 0.1)


class TestTwoQubitDepth:
    def test_hand_examples(self):
        assert two_qubit_depth(Circuit(2, [Gate("h", (0,))])) == 0
        zz01 = Gate("zzphase", (0, 1), angle=0.1)
        zz23 = Gate("zzphase", (2, 3), angle=0.1)
        zz12 = Gate("zzphase", (1, 2), angle=0.1)
        assert two_qubit_depth(Circuit(4, [zz01, zz23])) == 1
        assert two_qubit_depth(Circuit(4, [zz01, zz12])) == 2
        assert two_qubit_depth(Circuit(4, [zz01, zz23, zz12])) == 2

    def test_wide_gate_uses_ladder_convention(self):
        g = pexp("X0 Y1 Z2", 0.3)
        # ladder (0,1),(1,2) down then back up: four sequential blocks
        assert two_qubit_depth(Circuit(3, [g])) == 4


class TestHeaAnsatz:
    @pytest.mark.parametrize("n,layers", [(3, 6), (5, 6), (8, 6), (9, 4)])
    def test_counts_match_formulas(self, n, layers):
        circuit, spec = hea_ansatz(n, layers)
        assert spec == AnsatzSpec(
            n_qubits=n,
            layers=layers,
            n_params=layers * (4 * n - 1) + 3 * n,
            two_qubit_count=layers * (n - 1),
        )
        assert circuit.n_params == spec.n_params
        two_qubit = [g for g in circuit.gates if g.kind == "zzphase"]
        assert len(two_qubit) == spec.two_qubit_count
        # every entangler shares the ancilla, so depth equals the count
        assert two_qubit_depth(circuit) == spec.two_qubit_count

    def test_structure(self):
        circuit, _ = hea_ansatz(2, 1)
        kinds = [g.kind for g in circuit.gates]
        assert kinds == (
            ["h"] + ["rx", "rz", "rx"] * 2 + ["zzphase"] + ["rx", "rz", "rx"] * 2
        )
        assert [g.param for g in circuit.gates if g.param is not None] == list(
            range(circuit.n_params)
        )

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            hea_ansatz(1, 3)
        with pytest.raises(ValueError):
            hea_ansatz(3, 0)

