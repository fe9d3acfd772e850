"""Phase-estimation pipeline tests against dense oracles."""

import itertools
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    blocked_eig_sums,
    dense_sum,
    gate_matrix,
    phasor_objective,
    random_state,
    random_sum,
    z_padded_sum,
)
from gsee import pauli, simulator
from gsee.chem import jordan_wigner, parse_fcidump
from gsee.circuits import Gate, hea_ansatz
from gsee.pauli import PauliString, PauliSum
from gsee.qcels import (
    ALIAS_SAFE_TAU,
    OverlapSeries,
    acquire,
    choose_grid,
    fit,
    hadamard_test_states,
    scale,
    std_error,
)
from gsee.recompile import CompileConfig, compile_series
from gsee.simulator import (
    StateVector,
    estimate_pauli_z,
    expectation,
    sample_z,
    simulate_batch,
)


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def two_qubit_fixture():
    h = PauliSum(
        2,
        {
            PauliString.from_label("Z0"): 0.8,
            PauliString.from_label("Z1"): -0.5,
            PauliString.from_label("X0 X1"): 0.45,
            PauliString.from_label("Y0 Z1"): 0.3,
        },
    )
    vals, vecs = np.linalg.eigh(h.to_dense())
    return h, vals, vecs


def eigenstate_series(theta0, tau, n_points):
    return np.exp(-1j * np.arange(n_points) * tau * theta0)


def exact_series(values, tau):
    zeros = np.zeros(len(values))
    values = np.asarray(values, dtype=complex)
    return OverlapSeries(tau, values, zeros, zeros, None, "exact")


def scaled_dense(h, sh):
    """The dense oracle for H~ = (H - h0 I) / h1.

    h0 leaves the identity coefficient before the sum is made dense: on
    the diagonal, (h0 + d) - h0 keeps d only to the ulp of h0, an error
    that 1/h1 magnifies when the spectrum is narrow beside h0.
    """
    shifted = h - PauliSum(h.n_qubits, {PauliString(): sh.h0})
    return dense_sum(shifted) / sh.h1


def scaled_case(h, one_block, seed):
    """``scale(h)`` and a random state inside one random block or over all.

    A sum proportional to the identity is rejected (hypothesis ``assume``).
    """
    dim = 1 << h.n_qubits
    shifted = dense_sum(h) - h.identity_coefficient.real * np.eye(dim)
    assume(np.max(np.abs(np.linalg.eigvalsh(shifted))) > 1e-9)
    sh = scale(h)
    rng = np.random.default_rng(seed)
    amps = random_state(rng, h.n_qubits)
    if one_block:
        inside = np.zeros(dim, dtype=bool)
        rows = sh.rows[rng.integers(len(sh.rows))]
        inside[rows[rng.integers(len(rows))]] = True
        amps = np.where(inside, amps, 0) / np.linalg.norm(amps[inside])
    return sh, StateVector(h.n_qubits, amps)


def unit_z():
    """A scaled Hamiltonian for fits, which read it only for the energy."""
    return scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))


def hand_sampled_series(states, spc, seed):
    """Each point's ancilla read one part at a time, with dense rotations.

    Part 0 rotates X_0 and part 1 rotates Y_0 onto Z_0 (H and rx(pi/2));
    point n, part p is sampled on stream (seed, n, p).
    """
    width = len(states[0]).bit_length() - 1
    rotations = [
        gate_matrix(Gate("h", (0,)), width),
        gate_matrix(Gate("rx", (0,), angle=math.pi / 2), width),
    ]
    values = []
    for n, amps in enumerate(states):
        re, im = (
            estimate_pauli_z(
                sample_z(StateVector(width, u @ amps), spc, seed, (n, part)), 1
            )
            for part, u in enumerate(rotations)
        )
        values.append(complex(re, im))
    return np.array(values)


def assert_matches_hand_readout(series, states, spc, seed):
    want = hand_sampled_series(states, spc, seed)
    assert series.values.tolist() == want.tolist()
    assert series.stderr_re.tolist() == [std_error(z.real, spc) for z in want]
    assert series.stderr_im.tolist() == [std_error(z.imag, spc) for z in want]


class TestScale:
    def test_single_z(self):
        h = PauliSum(1, {PauliString.from_label("Z0"): 1.0})
        sh = scale(h)
        assert sh.h0 == 0.0
        assert sh.h1 == pytest.approx(4.0 / math.pi, abs=1e-15)
        eigs = np.linalg.eigvalsh(scaled_dense(h, sh))
        assert np.allclose(np.abs(eigs), math.pi / 4.0, atol=1e-12)

    def test_identity_multiple_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            scale(PauliSum(2, {PauliString(): 3.0}))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            scale(PauliSum(1, {PauliString.from_label("Z0"): 1j}))

    def test_random_sums_reconstruct_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = random_sum(rng, 3, 6)
            sh = scale(h)
            dense = dense_sum(h)
            assert sh.h0 == pytest.approx(
                np.trace(dense).real / 8.0, abs=1e-12
            )
            eigs = np.linalg.eigvalsh(dense)
            scaled_eigs = np.linalg.eigvalsh(scaled_dense(h, sh))
            assert np.max(np.abs(scaled_eigs)) <= math.pi / 4.0 + 1e-9
            # H~ is held as these eigenvalues
            vals = np.sort(np.concatenate([v.ravel() for v in sh.vals]))
            assert np.allclose(vals, scaled_eigs, atol=1e-12)
            assert np.allclose(sh.h0 + sh.h1 * scaled_eigs, eigs, atol=1e-10)

    def test_wide_register_refused_before_allocating(self, monkeypatch):
        # memory alone bounds the register: 2^15 blocks of 1 x 1 with their
        # vectors and index arrays and the one term take 8.9 MB, against a
        # machine of 1 MB
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10**6)
        h = PauliSum(15, {PauliString.from_label("Z0"): 2.0})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"8,913,152 bytes.* 1,000,000 bytes"):
                scale(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before any 2^15-long index array
        assert peak < 8 << 15

    def test_fifteen_qubits_scale_block_by_block(self):
        # no width cap: 4,096 blocks of 8 rows fit in a few MB
        h, small = z_padded_sum(np.random.default_rng(15), 15)
        sh = scale(h)
        # the 3-qubit part moves electrons between sectors: the cosets
        (rows,), (vals,) = sh.rows, sh.vals
        assert rows.shape == (1 << 12, 8)
        # each block holds the 3-qubit part's spectrum, shifted by the Z
        # terms' constant on the block's bits 3-14
        qubits = np.arange(3, 15)
        z = np.array([h.coefficient(PauliString(0, 1 << q)).real for q in qubits])
        signs = 1 - 2 * ((rows[:, :1] >> qubits) & 1)
        want = np.linalg.eigvalsh(dense_sum(small)) + (z * signs).sum(1, keepdims=True)
        radius = np.max(np.abs(want))
        np.testing.assert_allclose(
            sh.h0 + sh.h1 * vals, want, rtol=0, atol=1e-12 * radius
        )

    def test_keeps_the_shifted_decomposition_bit_for_bit(self):
        h = random_sum(np.random.default_rng(12), 3, 6) + PauliSum(
            3, {PauliString(): 0.4}
        )
        sh = scale(h)
        cells = (h - PauliSum(3, {PauliString(): sh.h0})).blocks()
        assert len(sh.rows) == len(sh.vals) == len(sh.vecs) == len(cells)
        # one (vals, vecs) pair per symmetry cell, never scattered into
        # a 2^n x 2^n matrix
        for (rows, mats), sh_rows, sh_vals, sh_vecs in zip(cells, sh.rows, sh.vals, sh.vecs):
            vals, vecs = np.linalg.eigh(mats)
            assert sh_rows.tobytes() == rows.tobytes()
            assert sh_vals.shape == rows.shape
            assert sh_vecs.shape == mats.shape
            assert sh_vals.tobytes() == ((1.0 / sh.h1) * vals).tobytes()
            assert sh_vecs.tobytes() == vecs.tobytes()


class TestEvolve:
    # no odd-Y string: a real matrix, diagonalized on the real eigh path
    EVEN_Y = [("Z0", 0.7), ("X0 X1", -0.4), ("Y1 Y2", 0.9), ("X0 Z1 Z2", 0.3),
              ("Y0 X1 Y2", -0.6)]

    def test_matches_expm(self):
        psi = StateVector(3, random_state(np.random.default_rng(31), 3))
        # an odd-Y string takes the complex eigh path
        for odd_y, tau in itertools.product((False, True), (0.37, -0.61)):
            labels = self.EVEN_Y + [("Y0 Z2", 0.5)] * odd_y
            h = PauliSum(3, {PauliString.from_label(s): c for s, c in labels})
            sh = scale(h)
            assert any(np.any(v.imag) for v in sh.vecs) == odd_y
            rows = sh.evolve(psi, tau, 5)
            assert rows.shape == (5, 8)
            assert np.max(np.abs(rows[0] - psi.amplitudes)) < 1e-14
            dense = scaled_dense(h, sh)
            for n, row in enumerate(rows):
                want = expm(-1j * n * tau * dense) @ psi.amplitudes
                assert np.linalg.norm(row - want) < 1e-10

    @settings(deadline=None, max_examples=60)
    @given(h=blocked_eig_sums(), one_block=st.booleans(),
           seed=st.integers(0, 2**32 - 1), tau=st.floats(0.05, ALIAS_SAFE_TAU))
    def test_rows_match_expm_in_one_block_or_all(self, h, one_block, seed, tau):
        sh, psi = scaled_case(h, one_block, seed)
        dense = scaled_dense(h, sh)
        for n, row in enumerate(sh.evolve(psi, tau, 4)):
            want = expm(-1j * (n * tau) * dense) @ psi.amplitudes
            assert np.max(np.abs(row - want)) <= 1e-12

    def test_composition(self):
        rng = np.random.default_rng(37)
        sh = scale(random_sum(rng, 2, 4))
        psi = StateVector(2, random_state(rng, 2))
        halfway = StateVector(2, sh.evolve(psi, 0.3, 2)[1])
        one = sh.evolve(halfway, 0.5, 2)[1]
        two = sh.evolve(psi, 0.8, 2)[1]
        assert np.linalg.norm(one - two) < 1e-12
        # row n of step tau is row 1 of step n tau
        assert np.linalg.norm(sh.evolve(psi, 0.4, 3)[2] - two) < 1e-12

    def test_width_mismatch_rejected(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        with pytest.raises(ValueError, match="widths differ"):
            sh.evolve(StateVector.zero_state(2), 0.5, 3)


class TestMean:
    @settings(deadline=None, max_examples=80)
    @given(h=blocked_eig_sums(), one_block=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_expectation(self, h, one_block, seed):
        sh, psi = scaled_case(h, one_block, seed)
        amps = psi.amplitudes
        want = np.vdot(amps, scaled_dense(h, sh) @ amps).real
        assert abs(sh.mean(psi) - want) <= 1e-12

    def test_real_and_odd_y_paths(self):
        psi = StateVector(3, random_state(np.random.default_rng(41), 3))
        for odd_y in (False, True):
            labels = TestEvolve.EVEN_Y + [("Y0 Z2", 0.5)] * odd_y
            h = PauliSum(3, {PauliString.from_label(s): c for s, c in labels})
            sh = scale(h)
            assert any(np.any(v.imag) for v in sh.vecs) == odd_y
            want = np.vdot(psi.amplitudes, scaled_dense(h, sh) @ psi.amplitudes)
            assert abs(sh.mean(psi) - want.real) <= 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            unit_z().mean(StateVector.zero_state(2))


class TestChooseGrid:
    def test_boundary_eigenstate(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        tau = choose_grid(sh, StateVector.zero_state(1), 33)
        assert tau == pytest.approx(0.5, abs=1e-12)

    def test_zero_mean_falls_back(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert choose_grid(sh, plus, 33) == pytest.approx(0.5, abs=1e-12)

    def test_small_phase_is_alias_capped(self):
        h = PauliSum(1, {PauliString.from_label("Z0"): 1.0})
        sh = scale(h)
        # <Z> = 0.02 * 4/pi puts theta^ at 0.02, above the fallback cut
        mean_z = 0.02 * 4.0 / math.pi
        a = math.sqrt((1.0 + mean_z) / 2.0)
        psi = StateVector(1, np.array([a, math.sqrt(1.0 - a * a)]))
        theta_hat = np.vdot(psi.amplitudes, scaled_dense(h, sh) @ psi.amplitudes).real
        assert 0.01 < abs(theta_hat) < 0.1
        assert choose_grid(sh, psi, 33) == ALIAS_SAFE_TAU

    def test_eigenstate_series_changes_sign(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        tau = choose_grid(sh, psi, 33)
        series = acquire(sh, psi, tau, 33, "exact")
        signs = np.sign(series.values.real)
        changes = np.sum(signs[1:] * signs[:-1] < 0)
        assert changes >= 2

    def test_needs_two_points(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        with pytest.raises(ValueError, match="two time points"):
            choose_grid(sh, StateVector.zero_state(1), 1)

    def test_reads_no_pauli_term_after_the_blocks(self, monkeypatch):
        fi = parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text())
        h = jordan_wigner(fi)
        amps = np.zeros(1 << h.n_qubits, dtype=complex)
        amps[[0b01010100, 0b00010101, 0b01000101]] = [0.8, 0.48, 0.36]
        psi = StateVector(h.n_qubits, amps)
        in_blocks, reads = [], []

        def spy(name, func):
            def spied(*args, **kwargs):
                if not in_blocks:
                    reads.append(name)
                return func(*args, **kwargs)
            return spied

        def watched_blocks(self):
            in_blocks.append(True)
            try:
                return blocks(self)
            finally:
                in_blocks.pop()

        blocks = PauliSum.blocks
        monkeypatch.setattr(PauliSum, "blocks", watched_blocks)
        for name in ("act", "action"):
            monkeypatch.setattr(
                PauliString, name, spy(name, getattr(PauliString, name))
            )
        # wherever a module imported it by name
        for module in list(sys.modules.values()):
            if getattr(module, "expectation", None) is simulator.expectation:
                monkeypatch.setattr(
                    module, "expectation", spy("expectation", simulator.expectation)
                )
        sh = scale(h)
        tau = choose_grid(sh, psi, 33)
        assert reads == []
        want = np.vdot(amps, scaled_dense(h, sh) @ amps).real
        assert abs(sh.mean(psi) - want) <= 1e-12
        assert 0.0 < tau <= ALIAS_SAFE_TAU
        # the spies do see a term-by-term read
        simulator.expectation(psi, h)
        assert {"expectation", "act", "action"} <= set(reads)


class TestStdError:
    def test_extremes(self):
        assert std_error(1.0, 100) == 0.0
        assert std_error(0.0, 100) == pytest.approx(0.100, abs=1e-15)
        assert std_error(0.0, 500) == pytest.approx(0.0447, abs=5e-4)

    def test_empirical_match(self):
        # mean of spc Rademacher-like +/-1 draws from a known <Z>
        sh = scale(
            PauliSum(
                1,
                {
                    PauliString.from_label("Z0"): 0.7,
                    PauliString.from_label("X0"): 0.4,
                },
            )
        )
        vals, vecs = np.linalg.eigh(
            0.7 * np.array([[1, 0], [0, -1]]) + 0.4 * np.array([[0, 1], [1, 0]])
        )
        psi = StateVector(1, vecs[:, 0].astype(complex))
        spc = 400
        means = []
        for seed in range(200):
            s = acquire(sh, psi, 0.5, 2, "shots", spc=spc, seed=seed)
            means.append(s.values[1].real)
        true_re = acquire(sh, psi, 0.5, 2, "exact").values[1].real
        predicted = std_error(true_re, spc)
        assert np.std(means) == pytest.approx(predicted, rel=0.2)


class TestAcquireExact:
    def test_z0_is_one(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 0])
        series = acquire(sh, psi, 0.5, 9, "exact")
        assert series.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert np.all(series.stderr_re == 0.0)
        assert series.spc is None

    def test_eigenstate_is_pure_phase(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        for idx in range(4):
            theta0 = (vals[idx] - sh.h0) / sh.h1
            psi = StateVector(2, vecs[:, idx])
            series = acquire(sh, psi, 0.8, 17, "exact")
            expected = eigenstate_series(theta0, 0.8, 17)
            assert np.max(np.abs(series.values - expected)) < 1e-12

    def test_mode_validation(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 0])
        with pytest.raises(ValueError, match="mode"):
            acquire(sh, psi, 0.5, 9, "dense")
        with pytest.raises(ValueError, match="spc"):
            acquire(sh, psi, 0.5, 9, "shots")
        with pytest.raises(ValueError, match="two time points"):
            acquire(sh, psi, 0.5, 1, "exact")


class TestAcquireShots:
    def test_deterministic_and_order_independent(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        a = acquire(sh, psi, 0.7, 12, "shots", spc=200, seed=5)
        b = acquire(sh, psi, 0.7, 12, "shots", spc=200, seed=5)
        assert np.array_equal(a.values, b.values)
        # each time point draws from its own derived stream
        longer = acquire(sh, psi, 0.7, 20, "shots", spc=200, seed=5)
        assert np.array_equal(longer.values[:12], a.values)
        other = acquire(sh, psi, 0.7, 12, "shots", spc=200, seed=6)
        assert not np.array_equal(other.values, a.values)

    def test_streams_follow_the_hand_readout(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, (vecs[:, 0] + vecs[:, 1]) / math.sqrt(2.0))
        tau, n_points, spc, seed = 0.7, 6, 300, 4
        series = acquire(sh, psi, tau, n_points, "shots", spc=spc, seed=seed)
        states = hadamard_test_states(sh, psi, tau, n_points)
        assert_matches_hand_readout(series, states, spc, seed)

    def test_statistical_consistency(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        tau = choose_grid(sh, psi, 33)
        exact = acquire(sh, psi, tau, 33, "exact")
        shots = acquire(sh, psi, tau, 33, "shots", spc=10_000, seed=3)
        floor = 1.0 / math.sqrt(10_000)
        ok = 0
        for n in range(33):
            re_ok = abs(shots.values[n].real - exact.values[n].real) < 3 * max(
                shots.stderr_re[n], floor
            )
            im_ok = abs(shots.values[n].imag - exact.values[n].imag) < 3 * max(
                shots.stderr_im[n], floor
            )
            ok += int(re_ok) + int(im_ok)
        assert ok >= 0.95 * 66

    def test_reported_errors_follow_formula(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        series = acquire(sh, psi, 0.9, 8, "shots", spc=250, seed=1)
        for n in range(8):
            assert series.stderr_re[n] == std_error(series.values[n].real, 250)
            assert series.stderr_im[n] == std_error(series.values[n].imag, 250)

    def test_magnitude_within_error_budget(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        series = acquire(sh, psi, 1.1, 33, "shots", spc=100, seed=9)
        bound = 1.0 + 3.0 * np.hypot(series.stderr_re, series.stderr_im)
        assert np.all(np.abs(series.values) <= bound)


class TestHadamardTestState:
    def test_branches_hold_identity_and_evolution(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        tau = 0.83
        states = hadamard_test_states(sh, psi, tau, 3)
        assert states.shape == (3, 8)
        idx = np.arange(4) << 1
        svals, svecs = np.linalg.eigh(scaled_dense(h, sh))
        for n, state in enumerate(states):
            top = state[idx] * math.sqrt(2.0)
            bottom = state[idx | 1] * math.sqrt(2.0)
            assert np.allclose(top, psi.amplitudes, atol=1e-12)
            u = svecs @ np.diag(np.exp(-1j * n * tau * svals)) @ svecs.conj().T
            assert np.allclose(bottom, u @ psi.amplitudes, atol=1e-10)

    def test_ancilla_expectations_give_overlap(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, (vecs[:, 0] + 2 * vecs[:, 2]) / math.sqrt(5.0))
        t = 1.7
        state = StateVector(3, hadamard_test_states(sh, psi, t, 2)[1])
        series = acquire(sh, psi, t, 2, "exact")
        x0 = PauliSum(3, {PauliString(x_mask=1): 1.0})
        y0 = PauliSum(3, {PauliString(1, 1): 1.0})
        assert expectation(state, x0).real == pytest.approx(
            series.values[1].real, abs=1e-12
        )
        assert expectation(state, y0).real == pytest.approx(
            series.values[1].imag, abs=1e-12
        )


class TestAcquireRecompiled:
    def setup_series(self, layers, max_iterations=300):
        h = PauliSum(
            1,
            {
                PauliString.from_label("Z0"): 0.7,
                PauliString.from_label("X0"): 0.4,
            },
        )
        sh = scale(h)
        vals, vecs = np.linalg.eigh(dense_sum(h))
        psi = StateVector(1, vecs[:, 0])
        tau, n_points = 0.8, 5
        targets = StateVector.rows(hadamard_test_states(sh, psi, tau, n_points))
        ansatz, _ = hea_ansatz(2, layers)
        compilation = compile_series(
            targets,
            ansatz,
            CompileConfig(seed=13, max_iterations=max_iterations,
                          tolerance=1e-12),
            layers=layers,
        )
        return sh, psi, tau, n_points, compilation

    def test_exact_expectations_track_series(self):
        sh, psi, tau, n_points, compilation = self.setup_series(2)
        assert compilation.mean_fidelity > 0.9999
        exact = acquire(sh, psi, tau, n_points, "exact")
        rec = acquire(
            sh, psi, tau, n_points, "recompiled", compilation=compilation
        )
        slack = 4.0 * math.sqrt(1.0 - compilation.min_fidelity) + 1e-8
        assert np.max(np.abs(rec.values - exact.values)) < slack
        assert rec.spc is None
        assert np.all(rec.stderr_re == 0.0)

    def test_sampled_recompiled_measurements(self):
        sh, psi, tau, n_points, compilation = self.setup_series(2)
        rec = acquire(
            sh,
            psi,
            tau,
            n_points,
            "recompiled",
            spc=400,
            seed=2,
            compilation=compilation,
        )
        assert rec.spc == 400
        assert np.any(rec.stderr_re > 0.0)
        exact = acquire(sh, psi, tau, n_points, "exact")
        assert np.max(np.abs(rec.values - exact.values)) < 0.3

    def test_streams_follow_the_hand_readout(self):
        sh, psi, tau, n_points, compilation = self.setup_series(1, 40)
        spc, seed = 300, 7
        series = acquire(sh, psi, tau, n_points, "recompiled", spc=spc, seed=seed,
                         compilation=compilation)
        ansatz, _ = hea_ansatz(compilation.n_qubits, compilation.layers)
        zero = StateVector.zero_state(ansatz.n_qubits).amplitudes
        states = [
            simulate_batch(ansatz, zero, r.parameters[None])[0]
            for r in compilation.results
        ]
        assert_matches_hand_readout(series, states, spc, seed)

    def test_validation(self):
        sh, psi, tau, n_points, compilation = self.setup_series(1, 40)
        with pytest.raises(ValueError, match="SeriesCompilation"):
            acquire(sh, psi, tau, n_points, "recompiled")
        with pytest.raises(ValueError, match="time points"):
            acquire(
                sh, psi, tau, n_points + 1, "recompiled",
                compilation=compilation,
            )
        wide = StateVector.zero_state(2)
        with pytest.raises(ValueError, match="register"):
            acquire(sh, wide, tau, n_points, "recompiled",
                    compilation=compilation)

    def test_deviation_shrinks_with_fidelity(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 0])
        tau, n_points = 0.7, 9
        targets = StateVector.rows(hadamard_test_states(sh, psi, tau, n_points))
        e_exact = fit(acquire(sh, psi, tau, n_points, "exact"), sh).energy
        fids, devs = [], []
        for layers in (2, 4, 6):
            ansatz, _ = hea_ansatz(3, layers)
            compilation = compile_series(
                targets,
                ansatz,
                CompileConfig(seed=11, max_iterations=260, tolerance=1e-12),
                layers=layers,
            )
            rec = acquire(
                sh, psi, tau, n_points, "recompiled", compilation=compilation
            )
            fids.append(compilation.mean_fidelity)
            devs.append(abs(fit(rec, sh).energy - e_exact))
        assert fids[0] < fids[1] < fids[2]
        assert devs[0] >= devs[1] - 1e-6
        assert devs[1] >= devs[2] - 1e-6
        assert devs[2] < 1e-3


class TestFit:
    def test_eigenstate_peak(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        theta0 = (vals[1] - sh.h0) / sh.h1
        series = OverlapSeries(
            tau=1.3,
            values=eigenstate_series(theta0, 1.3, 33),
            stderr_re=np.zeros(33),
            stderr_im=np.zeros(33),
            spc=None,
            mode="exact",
        )
        res = fit(series, sh)
        assert res.theta == pytest.approx(theta0, abs=1e-9)
        assert res.peak == pytest.approx(33.0**2, rel=1e-12)
        assert res.energy == pytest.approx(vals[1], abs=1e-8)

    def test_two_component_series(self):
        dominant, minor, tau, n = 0.25, -0.6, 3.0, 33
        values = 0.96 * eigenstate_series(dominant, tau, n)
        values += 0.04 * eigenstate_series(minor, tau, n)
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        series = OverlapSeries(
            tau=tau,
            values=values,
            stderr_re=np.zeros(n),
            stderr_im=np.zeros(n),
            spc=None,
            mode="exact",
        )
        res = fit(series, sh)
        # independent brute-force scan of the same objective
        grid = np.linspace(-math.pi / 4.0, math.pi / 4.0, 400_001)
        brute = grid[np.argmax(phasor_objective(values, tau, grid))]
        assert abs(res.theta - brute) < 5e-6
        assert abs(res.theta - dominant) < 1e-4

    def test_boundary_fixture_energy_is_exact(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        psi = StateVector.zero_state(1)
        tau = choose_grid(sh, psi, 33)
        res = fit(acquire(sh, psi, tau, 33, "exact"), sh)
        assert res.theta == math.pi / 4.0
        assert res.energy == 1.0

    def test_global_phase_invariance(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        series = acquire(sh, psi, 0.9, 21, "exact")
        rotated = OverlapSeries(
            tau=series.tau,
            values=series.values * np.exp(0.37j),
            stderr_re=series.stderr_re,
            stderr_im=series.stderr_im,
            spc=None,
            mode="exact",
        )
        a = fit(series, sh)
        b = fit(rotated, sh)
        assert np.allclose(a.curve, b.curve, rtol=1e-10, atol=1e-8)
        # the phase factor rounds every sample differently, which moves
        # the polished peak by rounding alone
        assert abs(a.theta - b.theta) < 1e-8

    def test_peak_dominates_grid(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, (vecs[:, 0] + vecs[:, 3]) / math.sqrt(2.0))
        series = acquire(sh, psi, 1.0, 33, "shots", spc=300, seed=4)
        res = fit(series, sh)
        assert res.peak >= np.max(res.curve) - 1e-9
        assert -math.pi / 4.0 <= res.theta <= math.pi / 4.0

    @settings(deadline=None, max_examples=200)
    @given(
        n_points=st.integers(2, 200),
        tau=st.floats(0.1, ALIAS_SAFE_TAU),
        phi=st.floats(-math.pi / 4.0 + 0.05, math.pi / 4.0 - 0.05),
        magnitude=st.floats(1e-3, 1e3),
        phase=st.floats(-math.pi, math.pi),
    )
    def test_single_tone_peak_is_its_phase(self, n_points, tau, phi, magnitude, phase):
        # Z_n = a e^{-i n tau phi} makes f a Dirichlet kernel peaked at phi
        values = magnitude * np.exp(1j * phase) * eigenstate_series(phi, tau, n_points)
        res = fit(exact_series(values, tau), unit_z())
        assert abs(res.theta - phi) <= 1e-12

    def test_one_ulp_nudges_leave_theta_put(self):
        lines = (GOLDEN / "qcels_recompiled" / "overlap.csv").read_text().splitlines()
        tau = float(lines[0].split()[1].removeprefix("tau="))
        rows = np.array([[float(x) for x in row.split(",")] for row in lines[2:]])
        parts = rows[:, 2:4]
        sh = unit_z()
        theta = fit(exact_series(parts[:, 0] + 1j * parts[:, 1], tau), sh).theta
        for index in np.ndindex(parts.shape):
            for direction in (-np.inf, np.inf):
                nudged = parts.copy()
                nudged[index] = np.nextafter(nudged[index], direction)
                series = exact_series(nudged[:, 0] + 1j * nudged[:, 1], tau)
                move = abs(fit(series, sh).theta - theta)
                assert move <= 4 * np.spacing(abs(theta)), (index, direction, move)

    def test_memory_is_linear_in_the_grid(self):
        rng = np.random.default_rng(5)
        series = exact_series(rng.normal(size=200) + 1j * rng.normal(size=200), 1.1)
        tracemalloc.start()
        try:
            fit(series, unit_z())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (grid x samples) complex array would be 64 MB
        assert peak < 8e6

    @pytest.mark.parametrize("n_points", [2, 33, 1000])
    def test_curve_matches_the_phasor_matrix(self, n_points):
        rng = np.random.default_rng(n_points)
        values = rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
        tau = rng.uniform(0.1, ALIAS_SAFE_TAU)
        res = fit(exact_series(values, tau), unit_z())
        want = phasor_objective(values, tau, res.grid)
        assert np.max(np.abs(res.curve - want)) <= 1e-13 * np.max(res.curve)

    def test_validation(self):
        sh = scale(PauliSum(1, {PauliString.from_label("Z0"): 1.0}))
        short = OverlapSeries(
            tau=0.5,
            values=np.array([1.0 + 0.0j]),
            stderr_re=np.zeros(1),
            stderr_im=np.zeros(1),
            spc=None,
            mode="exact",
        )
        with pytest.raises(ValueError, match="two samples"):
            fit(short, sh)


class TestReconstructionIdentity:
    def test_every_eigenstate_recovers_its_energy(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            h = random_sum(rng, 2, 5)
            sh = scale(h)
            vals, vecs = np.linalg.eigh(dense_sum(h))
            for idx in range(4):
                psi = StateVector(2, vecs[:, idx])
                tau = choose_grid(sh, psi, 33)
                res = fit(acquire(sh, psi, tau, 33, "exact"), sh)
                assert abs(res.energy - vals[idx]) < 1e-7 * max(1.0, sh.h1)

    def test_shot_mode_converges_with_budget(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        tau = choose_grid(sh, psi, 33)
        e_exact = fit(acquire(sh, psi, tau, 33, "exact"), sh).energy
        medians = []
        for spc in (100, 1000, 10_000, 100_000):
            errs = [
                abs(
                    fit(
                        acquire(sh, psi, tau, 33, "shots", spc=spc, seed=seed),
                        sh,
                    ).energy
                    - e_exact
                )
                for seed in range(20)
            ]
            medians.append(np.median(errs))
        assert all(medians[i] > medians[i + 1] for i in range(3))


class TestSerialization:
    def test_series_csv_round_trip(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 1])
        series = acquire(sh, psi, 0.7, 6, "shots", spc=150, seed=8)
        lines = series.to_csv().splitlines()
        assert lines[0] == f"# tau={series.tau!r} spc=150 mode=shots"
        assert lines[1] == "n,t,re,im,stderr_re,stderr_im"
        rows = np.array([[float(x) for x in row.split(",")] for row in lines[2:]])
        assert np.array_equal(rows[:, 0], np.arange(6))
        assert np.array_equal(rows[:, 1], np.arange(6) * series.tau)
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], series.values)
        assert np.array_equal(rows[:, 4], series.stderr_re)
        assert np.array_equal(rows[:, 5], series.stderr_im)

    def test_exact_series_round_trips_none_spc(self):
        h, vals, vecs = two_qubit_fixture()
        sh = scale(h)
        psi = StateVector(2, vecs[:, 0])
        series = acquire(sh, psi, 0.4, 4, "exact")
        lines = series.to_csv().splitlines()
        assert lines[0] == "# tau=0.4 spc=none mode=exact"
        rows = np.array([[float(x) for x in row.split(",")] for row in lines[2:]])
        assert np.array_equal(rows[:, 2] + 1j * rows[:, 3], series.values)

    def test_series_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            OverlapSeries(
                tau=0.5,
                values=np.ones(2, dtype=complex),
                stderr_re=np.zeros(2),
                stderr_im=np.zeros(2),
                spc=None,
                mode="guess",
            )


class TestOneEigendecomposition:
    def test_pipeline_diagonalizes_once(self, monkeypatch):
        fi = parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text())
        h = jordan_wigner(fi)
        amps = np.zeros(1 << h.n_qubits, dtype=complex)
        amps[[0b01010100, 0b00010101, 0b01000101]] = [0.8, 0.48, 0.36]
        psi = StateVector(h.n_qubits, amps)
        calls, block_calls = [], []
        eigh, blocks = np.linalg.eigh, PauliSum.blocks

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        def counting_blocks(self):
            block_calls.append(self.n_qubits)
            return blocks(self)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(PauliSum, "blocks", counting_blocks)
        sh = scale(h)
        tau = choose_grid(sh, psi, 9)
        for series in (
            acquire(sh, psi, tau, 9, "exact"),
            acquire(sh, psi, tau, 9, "shots", spc=100, seed=3),
        ):
            assert math.isfinite(fit(series, sh).energy)
        # scale diagonalizes H - h0 I once; H~ keeps its cell vectors and
        # the rescaled eigenvalues, which every evolution reads.  The 25
        # (N_alpha, N_beta) sectors of 4 orbitals each lie in one of the 4
        # cosets of 64, C(4, a) C(4, b) rows each, and one eigh is batched
        # over the sectors of each size
        assert block_calls == [8]
        assert calls == [(4, 1, 1), (8, 4, 4), (4, 6, 6), (4, 16, 16), (4, 24, 24), (1, 36, 36)]
