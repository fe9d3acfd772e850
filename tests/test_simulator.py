"""Simulator kernels checked against expm/kron oracles, plus sampling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cdf_sample_reference,
    choice_sample_reference,
    circuit_unitary,
    dense_sum,
    fixed_angles,
    gate_matrix,
    gather_hadamard,
    random_state,
    random_sum,
    reference_simulate,
    shift_gradient,
)
from gsee.circuits import Circuit, Gate, hea_ansatz
from gsee import simulator
from gsee.pauli import PauliString, PauliSum
from gsee.simulator import (
    CompiledCircuit,
    ShotRecord,
    StateVector,
    apply_circuit,
    derived_rng,
    estimate_pauli_z,
    expectation,
    overlap_gradient,
    sample_z,
    simulate_batch,
)


def random_gate(rng, n):
    kind = rng.choice(["h", "rx", "rz", "zzphase", "pauliexp"])
    angle = float(rng.uniform(-np.pi, np.pi))
    if kind == "h":
        return Gate(kind, (int(rng.integers(n)),))
    if kind in ("rx", "rz"):
        return Gate(kind, (int(rng.integers(n)),), angle=angle)
    if kind == "zzphase":
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        return Gate(kind, (a, b), angle=angle)
    support = {}
    qubits = list(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    for q in qubits:
        support[int(q)] = str(rng.choice(["X", "Y", "Z"]))
    string = PauliString.from_support(support)
    return Gate(kind, tuple(string.support), angle=angle, pauli=string)


@st.composite
def symbolic_circuits(draw):
    """Random circuits on 1-6 qubits over every gate kind.

    Rotations take a fixed angle, a fresh parameter id or an id an
    earlier gate already uses; at least one gate is symbolic.
    """
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    kinds = ["h", "rx", "rz", "pauliexp"]
    if n > 1:
        kinds.append("zzphase")
    gates, n_params = [], 0
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "h":
            gates.append(Gate(kind, (draw(qubit),)))
            continue
        choice = draw(st.sampled_from(
            ["fixed", "new", "shared"] if n_params else ["fixed", "new"]
        ))
        if choice == "fixed":
            rotation = {"angle": draw(st.floats(-7.0, 7.0))}
        elif choice == "new":
            rotation = {"param": n_params}
            n_params += 1
        else:
            rotation = {"param": draw(st.integers(0, n_params - 1))}
        if kind in ("rx", "rz"):
            gates.append(Gate(kind, (draw(qubit),), **rotation))
        elif kind == "zzphase":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(Gate(kind, tuple(pair), **rotation))
        else:
            string = PauliString.from_support(draw(st.dictionaries(
                qubit, st.sampled_from("XYZ"), max_size=n
            )))
            gates.append(
                Gate(kind, tuple(string.support), pauli=string, **rotation)
            )
    if n_params == 0:
        gates.append(Gate("rx", (draw(qubit),), param=0))
    return Circuit(n, gates)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_width_enforced(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="norm"):
            StateVector(2, np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="norm"):
            StateVector(2, np.array([bad, 1.0, 0.0, 0.0]))

    def test_basis_state_and_overlap(self):
        a = StateVector.basis_state(2, 3)
        assert a.amplitudes[3] == 1.0
        b = StateVector(2, np.array([0.6, 0.0, 0.0, 0.8j]))
        assert abs(np.vdot(a.amplitudes, b.amplitudes) - 0.8j) < 1e-15
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 4)

    def test_rows_wraps_each_row(self):
        amps = np.array([[0.6, 0.0, 0.0, 0.8j], [0.0, 1.0, 0.0, 0.0]])
        states = StateVector.rows(amps)
        assert [s.n_qubits for s in states] == [2, 2]
        assert all(np.array_equal(s.amplitudes, a) for s, a in zip(states, amps))
        with pytest.raises(ValueError, match="norm"):
            StateVector.rows(np.ones((1, 4)))


class TestGateKernels:
    def test_every_kind_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            gate = random_gate(rng, n)
            psi = random_state(rng, n)
            got = simulate_batch(Circuit(n, [gate]), psi)[0]
            want = gate_matrix(gate, n) @ psi
            assert np.linalg.norm(got - want) < 1e-12

    def test_identity_string_is_global_phase(self):
        psi = StateVector.zero_state(2)
        g = Gate("pauliexp", (), angle=0.8, pauli=PauliString.from_label(""))
        out = apply_circuit(psi, Circuit(2, [g]))
        assert abs(out.amplitudes[0] - np.exp(-0.4j)) < 1e-12

    def test_random_circuits_stay_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            circuit = Circuit(n, [random_gate(rng, n) for _ in range(12)])
            out = apply_circuit(StateVector(n, random_state(rng, n)), circuit)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_full_circuit_matches_unitary_product(self):
        rng = np.random.default_rng(13)
        n = 3
        circuit = Circuit(n, [random_gate(rng, n) for _ in range(15)])
        psi = random_state(rng, n)
        got = simulate_batch(circuit, psi)[0]
        want = circuit_unitary(circuit) @ psi
        assert np.linalg.norm(got - want) < 1e-11

    def test_compiled_kernels_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        every_kind = [
            Gate("h", (1,)),
            Gate("rx", (2,), angle=0.3),
            Gate("rz", (1,), angle=-1.2),
            Gate("zzphase", (0, 2), angle=2.1),
            Gate("pauliexp", (), angle=0.8, pauli=PauliString()),
            Gate("pauliexp", (0, 1, 2), angle=-0.4,
                 pauli=PauliString.from_label("Y0 X1 Z2")),
            Gate("pauliexp", (0, 2), angle=1.7,
                 pauli=PauliString.from_label("Z0 Z2")),
        ]
        circuits = [Circuit(3, every_kind)] + [
            Circuit(n, [random_gate(rng, n) for _ in range(20)])
            for n in (2, 3, 4)
        ]
        for circuit in circuits:
            for batch in (1, 4):
                dim = 1 << circuit.n_qubits
                states = np.stack([random_state(rng, circuit.n_qubits)
                                   for _ in range(batch)])
                got = simulate_batch(circuit, states)
                assert np.array_equal(got, reference_simulate(circuit, states))
                assert got.shape == (batch, dim)

    def test_unbound_circuit_rejected_by_apply(self):
        c, _ = hea_ansatz(2, 1)
        with pytest.raises(ValueError, match="unbound"):
            apply_circuit(StateVector.zero_state(2), c)


def hadamard_circuit(n: int) -> Circuit:
    """Hadamards first, last, back to back and between rotations, on every
    qubit, with symbolic and fixed rotations around them."""
    gates = [Gate("h", (q,)) for q in range(n)]
    for q in range(n):
        gates += [
            Gate("rx", (q,), param=2 * q), Gate("h", (q,)), Gate("h", ((q + 1) % n,)),
            Gate("rz", (q,), param=2 * q + 1), Gate("h", (n - 1 - q,)),
        ]
    if n > 1:
        gates += [Gate("zzphase", (0, n - 1), angle=0.7), Gate("h", (0,))]
    return Circuit(n, gates + [Gate("h", (q,)) for q in reversed(range(n))])


class TestViewHadamard:
    """The Hadamard mixes through a reshaped view, bit for bit as the
    ``(lo, hi)`` index gathers of :func:`gather_hadamard`."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_qubit_equals_the_gather(self, n):
        rng = np.random.default_rng(n)
        for shape in ((3, 1 << n), (2, 3, 1 << n)):
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for q in range(n):
                got, want = amps.copy(), amps.copy()
                simulator._Kernel("h", qubit=q).hadamard(got)
                gather_hadamard(want, q)
                assert np.array_equal(got, want)

    def test_non_contiguous_amplitudes_rejected(self):
        wide = np.ones((3, 16), dtype=complex)
        for amps in (wide[:, ::2], np.asfortranarray(wide)):
            with pytest.raises(ValueError, match="C-contiguous"):
                simulator._Kernel("h", qubit=1).hadamard(amps)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_sweeps_equal_the_gather(self, n, monkeypatch):
        rng = np.random.default_rng(10 + n)
        compiled = CompiledCircuit(hadamard_circuit(n))
        params = rng.uniform(-np.pi, np.pi, (4, compiled.circuit.n_params))
        psi = random_state(rng, n)
        targets = np.array([random_state(rng, n) for _ in range(2)])

        def sweeps():
            return (compiled.simulate(psi, params),
                    *overlap_gradient(compiled, targets, params))

        got = sweeps()
        monkeypatch.setattr(simulator._Kernel, "hadamard",
                            lambda k, amps: gather_hadamard(amps, k.qubit))
        for g, w in zip(got, sweeps(), strict=True):
            assert np.array_equal(g, w)


class TestSimulateBatch:
    def test_batched_params_equal_bound_loop(self):
        rng = np.random.default_rng(21)
        circuit, _ = hea_ansatz(3, 2)
        thetas = rng.uniform(-np.pi, np.pi, size=(4, circuit.n_params))
        psi = random_state(rng, 3)
        batched = simulate_batch(circuit, psi, thetas)
        for k in range(4):
            single = simulate_batch(fixed_angles(circuit, thetas[k]), psi)[0]
            assert np.linalg.norm(batched[k] - single) < 1e-12

    def test_parameter_matrix_required_iff_symbolic(self):
        circuit, _ = hea_ansatz(2, 1)
        psi = random_state(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="parameter matrix"):
            simulate_batch(circuit, psi)
        bound = fixed_angles(circuit, np.zeros(circuit.n_params))
        with pytest.raises(ValueError, match="parameter matrix"):
            simulate_batch(bound, psi, np.zeros((1, 0)))

    def test_compiled_circuit_serves_repeated_runs(self):
        rng = np.random.default_rng(23)
        circuit, _ = hea_ansatz(3, 2)
        compiled = CompiledCircuit(circuit)
        psi = random_state(rng, 3)
        for batch in (4, 1):
            thetas = rng.uniform(-np.pi, np.pi, size=(batch, circuit.n_params))
            assert np.array_equal(
                compiled.simulate(psi, thetas),
                simulate_batch(circuit, psi, thetas),
            )

    def test_batched_states_supported(self):
        rng = np.random.default_rng(2)
        states = np.stack([random_state(rng, 2) for _ in range(3)])
        c = Circuit(2, [Gate("h", (0,)), Gate("zzphase", (0, 1), angle=0.4)])
        out = simulate_batch(c, states)
        for k in range(3):
            assert (
                np.linalg.norm(out[k] - simulate_batch(c, states[k])[0]) < 1e-12
            )


class TestOverlapGradient:
    @settings(deadline=None)
    @given(circuit=symbolic_circuits(), data=st.data())
    def test_adjoint_matches_parameter_shift(self, circuit, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        restarts = data.draw(st.integers(1, 3))
        params = rng.uniform(-np.pi, np.pi, (restarts, circuit.n_params))
        target = random_state(rng, circuit.n_qubits)
        overlaps, grad = overlap_gradient(CompiledCircuit(circuit), target, params)
        want_overlaps, want_grad = shift_gradient(circuit, target, params)
        assert grad.shape == (restarts, circuit.n_params)
        np.testing.assert_allclose(overlaps, want_overlaps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-10)

    @settings(deadline=None)
    @given(circuit=symbolic_circuits(), data=st.data())
    def test_stacked_targets_equal_per_target_calls(self, circuit, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_targets = data.draw(st.integers(1, 4))
        restarts = data.draw(st.integers(1, 3))
        targets = np.array(
            [random_state(rng, circuit.n_qubits) for _ in range(n_targets)]
        )
        params = rng.uniform(-np.pi, np.pi, (n_targets * restarts, circuit.n_params))
        compiled = CompiledCircuit(circuit)
        overlaps, grad = overlap_gradient(compiled, targets, params)
        for t, target in enumerate(targets):
            rows = slice(t * restarts, (t + 1) * restarts)
            want_overlaps, want_grad = overlap_gradient(compiled, target, params[rows])
            assert np.array_equal(overlaps[rows], want_overlaps)
            assert np.array_equal(grad[rows], want_grad)

    def test_input_validation(self):
        circuit, _ = hea_ansatz(2, 1)
        compiled = CompiledCircuit(circuit)
        params = np.zeros((1, circuit.n_params))
        with pytest.raises(ValueError, match="parameter rows"):
            overlap_gradient(compiled, np.eye(4)[:2], params)
        with pytest.raises(ValueError, match="target width"):
            overlap_gradient(compiled, np.ones(8) / np.sqrt(8), params)
        with pytest.raises(ValueError, match="parameter shape"):
            overlap_gradient(compiled, np.eye(4)[0], params[:, 1:])
        bound = CompiledCircuit(fixed_angles(circuit, np.zeros(circuit.n_params)))
        with pytest.raises(ValueError, match="parameter matrix"):
            overlap_gradient(bound, np.eye(4)[0], np.zeros((1, 0)))


class TestExpectation:
    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            h = random_sum(rng, 3, 6)
            psi = random_state(rng, 3)
            got = expectation(StateVector(3, psi), h)
            want = psi.conj() @ dense_sum(h) @ psi
            assert abs(got - want) < 1e-12
            assert abs(got.imag) < 1e-12

    def test_width_mismatch_rejected(self):
        h = PauliSum(2, {PauliString.from_label("Z0"): 1.0})
        with pytest.raises(ValueError, match="widths"):
            expectation(StateVector.zero_state(3), h)


class TestSampling:
    def test_deterministic_per_seed_and_stream(self):
        psi = StateVector(1, np.sqrt([0.3, 0.7]).astype(complex))
        a = sample_z(psi, 50, seed=123, stream=(4, 5))
        b = sample_z(psi, 50, seed=123, stream=(4, 5))
        c = sample_z(psi, 50, seed=123, stream=(4, 6))
        # both streams observe outcomes [0, 1]; the counts tell them apart
        hist = [(r.outcomes.tolist(), r.counts.tolist()) for r in (a, b, c)]
        assert hist[0] == hist[1]
        assert hist[0] != hist[2]

    def test_record_is_an_ascending_histogram(self):
        rng = np.random.default_rng(11)
        for spc in (1, 7, 500):
            rec = sample_z(StateVector(4, random_state(rng, 4)), spc, seed=spc)
            assert np.all(np.diff(rec.outcomes) > 0)
            assert np.all(rec.counts >= 1)
            assert rec.counts.sum() == spc

    def test_record_rejects_counts_off_spc(self):
        outcomes = np.array([0, 3])
        ShotRecord(2, 5, outcomes, np.array([2, 3]))
        for counts in (np.array([2, 2]), np.array([2, 4]), np.array([5])):
            with pytest.raises(ValueError, match="spc"):
                ShotRecord(2, 5, outcomes, counts)

    def test_basis_state_is_noiseless(self):
        psi = StateVector.basis_state(3, 5)
        rec = sample_z(psi, 17, seed=0)
        assert set(rec.outcomes.tolist()) == {5}
        # <Z0 Z2> on |101> is +1, <Z1> is +1, <Z0> is -1
        assert estimate_pauli_z(rec, 0b101) == 1.0
        assert estimate_pauli_z(rec, 0b010) == 1.0
        assert estimate_pauli_z(rec, 0b001) == -1.0
        assert estimate_pauli_z(rec, 0) == 1.0

    def test_plus_state_statistics(self):
        n, spc = 2, 40000
        psi = StateVector(n, np.full(4, 0.5, dtype=complex))
        rec = sample_z(psi, spc, seed=77)
        sigma = 1.0 / np.sqrt(spc)
        for mask in (0b01, 0b10, 0b11):
            assert abs(estimate_pauli_z(rec, mask)) < 5 * sigma

    def test_argument_validation(self):
        psi = StateVector.zero_state(1)
        with pytest.raises(ValueError, match="spc"):
            sample_z(psi, 0, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 3])
    def test_non_finite_state_rejected(self, bad, where):
        # the constructor refuses such amplitudes; a state altered in place
        # must not yield a record either
        psi = StateVector.basis_state(2, 1)
        psi.amplitudes[where] = bad
        with pytest.raises(ValueError, match="finite positive"):
            sample_z(psi, 10, seed=1)
        psi.amplitudes[:] = 0.0
        with pytest.raises(ValueError, match="finite positive"):
            sample_z(psi, 10, seed=1)

    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_choice_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        kind = data.draw(st.sampled_from(["dense", "sparse", "tiny", "basis"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dim = 1 << n
        if kind == "basis":
            amps = np.zeros(dim, dtype=complex)
            amps[rng.integers(dim)] = 1.0
        elif kind == "dense":
            amps = random_state(rng, n)
        else:
            # a few live indices, or every index with most at 1e-9 weight
            amps = np.zeros(dim, dtype=complex) if kind == "sparse" else np.full(
                dim, np.sqrt(1e-9), dtype=complex
            )
            size = min(dim, int(rng.integers(1, 6)))
            live = rng.choice(dim, size=size, replace=False)
            amps[live] = rng.normal(size=len(live)) + 1j * rng.normal(size=len(live))
            amps /= np.linalg.norm(amps)
        psi = StateVector(n, amps)
        spc = data.draw(st.integers(1, 10_000), label="spc")
        seed, stream = data.draw(st.integers(0, 2**31)), data.draw(st.integers(0, 99))
        got = sample_z(psi, spc, seed, (stream,))
        want = choice_sample_reference(psi, spc, seed, (stream,))
        for a, b in ((got.outcomes, want.outcomes), (got.counts, want.counts)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_support_search_matches_the_full_cdf(self, data):
        # states with zero amplitudes anywhere, at either end or in runs
        n = data.draw(st.integers(1, 11), label="n")
        dim = 1 << n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        live = data.draw(st.sampled_from(["one", "few", "half", "all"]))
        size = {"one": 1, "few": min(dim, 5), "half": max(1, dim // 2), "all": dim}[live]
        amps = np.zeros(dim, dtype=complex)
        at = rng.choice(dim, size=size, replace=False)
        amps[at] = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi = StateVector(n, amps / np.linalg.norm(amps))
        spc = data.draw(st.integers(1, 5_000), label="spc")
        seed, stream = data.draw(st.integers(0, 2**31)), data.draw(st.integers(0, 99))
        got = sample_z(psi, spc, seed, (stream,))
        want = cdf_sample_reference(psi, spc, seed, (stream,))
        for a, b in ((got.outcomes, want.outcomes), (got.counts, want.counts)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_estimator_input_validation(self):
        rec = sample_z(StateVector.zero_state(2), 5, seed=1)
        with pytest.raises(ValueError, match="register"):
            estimate_pauli_z(rec, 0b100)
        assert estimate_pauli_z(rec, 0b11) == 1.0


class TestDerivedRng:
    def test_reproducible_and_stream_separated(self):
        a = derived_rng(5, 1, 2).random(4)
        b = derived_rng(5, 1, 2).random(4)
        c = derived_rng(5, 2, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
