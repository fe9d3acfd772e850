"""Moment, cumulant, and bootstrap tests against dense and hand oracles."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import coefficient, dense_string, dense_sum, eig_sums, random_sum, shot_mean_z
from gsee.chem import (
    ci_initial_state,
    determinants_from_json,
    jordan_wigner,
    parse_fcidump,
)
from gsee.circuits import Circuit, two_qubit_depth
from gsee import qcm4
from gsee.pauli import PauliString, PauliSum
from gsee.simulator import StateVector, expectation
from gsee.qcm4 import (
    MeasurementPlan,
    PlanCircuit,
    bootstrap,
    build_moments,
    cumulants,
    energy,
    estimate,
    moment_report,
    pauli_filter,
    plan,
)
from helpers import (
    add_terms_reference,
    bootstrap_moments_reference,
    circuit_unitary,
    conjugate_reference,
    estimate_reference,
    random_state,
    replay_reference,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

X0 = PauliString(0b01, 0)
Z0 = PauliString(0, 0b01)
Z1 = PauliString(0, 0b10)
Z0Z1 = PauliString(0, 0b11)


def h2_problem():
    h = jordan_wigner(parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text()))
    _, dets = determinants_from_json((FIXTURES / "h2_eq_ci.json").read_text())
    return h, ci_initial_state(dets, 0.0, 4)


def toy_3q():
    return PauliSum.from_json((FIXTURES / "toy_3q.json").read_text())


def dense_qcm4(h, psi):
    """Dense-oracle energy: matrix-power moments, hand-coded cumulant formula."""
    dense = dense_sum(h)
    v = psi.amplitudes
    raw = []
    acc = v.copy()
    for _ in range(4):
        acc = dense @ acc
        raw.append(float(np.vdot(v, acc).real))
    c1 = raw[0]
    c2 = raw[1] - c1 * c1
    c3 = raw[2] - c1 * raw[1] - 2 * c2 * c1
    c4 = raw[3] - c1 * raw[2] - 3 * c2 * raw[1] - 3 * c3 * c1
    if abs(c2) < 1e-10:
        return c1
    disc = math.sqrt(3 * c3 * c3 - 2 * c2 * c4)
    return c1 - (c2**3 / (c2**3 - c2 * c4)) * (disc - c3)


class TestBuildMoments:
    def test_single_z_powers(self):
        m = build_moments(PauliSum(1, {Z0: 1.0}))
        assert m.term_counts == (1, 1, 1, 1)
        assert coefficient(m.powers[1], PauliString()) == 1.0
        assert coefficient(m.powers[2], Z0) == 1.0
        assert coefficient(m.powers[3], PauliString()) == 1.0

    def test_xz_square_collapses(self):
        h = PauliSum(1, {Z0: 0.5, X0: 0.5})
        m = build_moments(h)
        assert m.term_counts[1] == 1
        assert coefficient(m.powers[1], PauliString()) == pytest.approx(0.5)

    def test_powers_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        h = random_sum(rng, 3, 6)
        m = build_moments(h)
        ref = np.eye(8, dtype=complex)
        dense = dense_sum(h)
        for n in range(4):
            ref = ref @ dense
            got = dense_sum(m.powers[n])
            assert np.max(np.abs(got - ref)) < 1e-10

    def test_powers_stay_hermitian(self):
        rng = np.random.default_rng(12)
        m = build_moments(random_sum(rng, 3, 5))
        assert all(p.is_hermitian() for p in m.powers)

    def test_truncation_applied_after_full_expansion(self):
        # a tiny coefficient must still seed cross terms before the cut
        h = PauliSum(2, {X0: 1.0, Z1: 1e-4})
        m = build_moments(h, threshold=1e-3)
        # the X0 Z1 cross term at 2e-4 exists only if H^2 is formed
        # before truncation; its weight lands in the dropped record
        assert m.dropped[1] == pytest.approx(2e-4, rel=1e-9)
        full = build_moments(h)
        assert full.dropped == (0.0, 0.0, 0.0, 0.0)
        assert full.term_counts[1] > m.term_counts[1]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            build_moments(PauliSum(1, {X0: 1j}))

    def test_term_cap(self, monkeypatch):
        rng = np.random.default_rng(13)
        h = random_sum(rng, 4, 12)
        monkeypatch.setattr(qcm4, "TERM_CAP", 20)
        with pytest.raises(ValueError, match="cap"):
            build_moments(h)


class TestPauliFilter:
    def test_basis_state_keeps_only_z(self):
        rng = np.random.default_rng(21)
        m = build_moments(random_sum(rng, 3, 6))
        psi = StateVector.basis_state(3, 0b101)
        fm, report = pauli_filter(m, psi)
        for power in fm.powers:
            for string, _ in power.terms():
                assert string.x_mask == 0
        assert all(abs(v) <= report.tol for _, v in report.audited)
        assert report.evaluated >= len(report.audited)

    def test_filtering_preserves_exact_moments(self):
        rng = np.random.default_rng(22)
        m = build_moments(random_sum(rng, 3, 6))
        psi = StateVector.basis_state(3, 0b011)
        fm, _ = pauli_filter(m, psi)
        for before, after in zip(m.powers, fm.powers):
            a = expectation(psi, before).real
            b = expectation(psi, after).real
            assert abs(a - b) < 1e-12

    def test_survivor_counts_exclude_identity(self):
        m = build_moments(PauliSum(1, {Z0: 1.0}))
        fm, report = pauli_filter(m, StateVector.basis_state(1, 0))
        assert report.survivors == (1, 0, 1, 0)
        assert fm.powers[1].identity_coefficient == 1.0

    def test_width_mismatch(self):
        m = build_moments(PauliSum(1, {Z0: 1.0}))
        with pytest.raises(ValueError, match="width"):
            pauli_filter(m, StateVector.basis_state(2, 0))


class TestPlan:
    def test_all_z_single_identity_circuit(self):
        h = PauliSum(3, {Z0: 0.5, Z0Z1: -0.3, PauliString(0, 0b110): 0.2})
        mp = plan(build_moments(h))
        assert mp.n_circuits == 1
        pc = mp.circuits[0]
        assert len(pc.clifford.gates) == 0
        assert pc.z_masks.tolist() == [s.z_mask for s in pc.terms]
        assert pc.signs.tolist() == [1.0] * len(pc.terms)

    def test_xx_zz_yy_one_circuit(self):
        h = PauliSum(
            2,
            {
                PauliString(0b11, 0): 1.0,
                PauliString(0, 0b11): 1.0,
                PauliString(0b11, 0b11): 1.0,
            },
        )
        mp = plan(build_moments(h))
        assert mp.n_circuits == 1
        pc = mp.circuits[0]
        u = circuit_unitary(pc.clifford)
        for string, mask, sign in zip(pc.terms, pc.z_masks.tolist(), pc.signs):
            lhs = u @ dense_string(string, 2) @ u.conj().T
            rhs = sign * dense_string(PauliString(0, mask), 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_random_sets_diagonalize_densely(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            h = random_sum(rng, n, int(rng.integers(3, 7)))
            mp = plan(build_moments(h))
            for pc in mp.circuits:
                u = circuit_unitary(pc.clifford)
                for string, mask, sign in zip(pc.terms, pc.z_masks.tolist(), pc.signs):
                    lhs = u @ dense_string(string, n) @ u.conj().T
                    rhs = sign * dense_string(PauliString(0, mask), n)
                    assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("n", [3, 64, 70, 130])
    def test_set_wide_conjugation_matches_one_string_at_a_time(self, n):
        rng = np.random.default_rng(n)

        def mask():
            return sum(1 << int(q) for q in np.flatnonzero(rng.integers(0, 2, n)))

        strings = [PauliString(mask(), mask()) for _ in range(40)]
        ops = []
        for _ in range(60):
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append([("h", a), ("s", a), ("cz", a, b)][int(rng.integers(3))])
        x = qcm4._transpose([s.x_mask for s in strings], n)
        z = qcm4._transpose([s.z_mask for s in strings], n)
        parity = qcm4._conjugate(x, z, 0, ops)
        signs = [1 - 2 * (parity >> k & 1) for k in range(len(strings))]
        got = list(zip(
            qcm4._transpose(x, len(strings)), qcm4._transpose(z, len(strings)), signs
        ))
        assert got == [conjugate_reference(s.x_mask, s.z_mask, ops) for s in strings]

    def test_every_string_covered_once(self):
        rng = np.random.default_rng(32)
        m = build_moments(random_sum(rng, 3, 6))
        mp = plan(m)
        seen = [s for pc in mp.circuits for s in pc.terms]
        assert len(seen) == len(set(seen))
        expected = {
            s
            for p in m.powers
            for s, _ in p.terms()
            if s != PauliString()
        }
        assert set(seen) == expected
        assert mp.n_circuits <= len(expected)

    def test_sets_mutually_commute(self):
        rng = np.random.default_rng(33)
        mp = plan(build_moments(random_sum(rng, 3, 7)))
        for pc in mp.circuits:
            strings = pc.terms
            for i, a in enumerate(strings):
                for b in strings[i + 1:]:
                    assert a.commutes(b)

    def test_constants_are_identity_coefficients(self):
        h = PauliSum(1, {Z0: 1.0, PauliString(): 0.25})
        m = build_moments(h)
        mp = plan(m)
        for idx, power in enumerate(m.powers):
            assert mp.constants[idx] == pytest.approx(
                power.identity_coefficient.real
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown commutation mode"):
            plan(build_moments(PauliSum(1, {Z0: 1.0})), mode="sideways")

    def test_uses_carry_moment_coefficients(self):
        m = build_moments(PauliSum(1, {Z0: 0.5}))
        mp = plan(m)
        (pc,) = mp.circuits
        assert pc.terms == (Z0,)
        # Z0 is absent from H^2 and H^4, which are multiples of the identity
        assert pc.coeffs.tolist() == [[0.5, 0.0, pytest.approx(0.125), 0.0]]


class TestEstimate:
    def test_exact_matches_expectation(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            h = random_sum(rng, 3, 6)
            m = build_moments(h)
            mp = plan(m)
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi = StateVector(3, v / np.linalg.norm(v))
            est = estimate(mp, psi)
            for n in range(1, 5):
                ref = expectation(psi, m.powers[n - 1]).real
                assert abs(est[n] - ref) < 1e-10

    def test_eigenstate_moments_are_powers(self):
        rng = np.random.default_rng(42)
        h = random_sum(rng, 2, 4)
        vals, vecs = np.linalg.eigh(dense_sum(h))
        psi = StateVector(2, vecs[:, 1])
        est = estimate(plan(build_moments(h)), psi)
        for n in range(1, 5):
            assert est[n] == pytest.approx(vals[1] ** n, abs=1e-10)

    def test_shot_determinism_and_seed_sensitivity(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        a = estimate(mp, psi, spc=200, seed=5, mode="shots")
        b = estimate(mp, psi, spc=200, seed=5, mode="shots")
        c = estimate(mp, psi, spc=200, seed=6, mode="shots")
        assert a.moments == b.moments
        assert a.moments != c.moments

    def test_shot_std_scales_as_inverse_sqrt_spc(self):
        h = PauliSum(2, {Z0: 0.8, Z1: -0.5, Z0Z1: 0.3})
        mp = plan(build_moments(h))
        amp = np.array([0.6, 0.5, 0.45, math.sqrt(0.1875)])
        psi = StateVector(2, amp.astype(complex))
        # per-shot std from the exact outcome distribution
        outcomes = np.arange(4)
        values = np.array(
            [
                sum(
                    c.real * (-1) ** ((k & s.z_mask).bit_count())
                    for s, c in h.terms()
                )
                for k in outcomes
            ]
        )
        probs = np.abs(psi.amplitudes) ** 2
        mean = probs @ values
        shot_std = math.sqrt(probs @ (values - mean) ** 2)
        for spc in (100, 400):
            samples = [
                estimate(mp, psi, spc=spc, seed=s, mode="shots")[1]
                for s in range(200)
            ]
            predicted = shot_std / math.sqrt(spc)
            assert np.std(samples) == pytest.approx(predicted, rel=0.25)

    def test_basis_state_all_z_shots_equal_exact(self):
        h = PauliSum(2, {Z0: 0.8, Z1: -0.5, Z0Z1: 0.3})
        mp = plan(build_moments(h))
        psi = StateVector.basis_state(2, 0b10)
        exact = estimate(mp, psi)
        for spc in (1, 7, 100):
            shots = estimate(mp, psi, spc=spc, seed=0, mode="shots")
            assert shots.moments == pytest.approx(exact.moments, abs=1e-12)

    @pytest.mark.parametrize("allocation", ["uniform", "weighted"])
    def test_shot_moments_rebuild_from_per_string_estimates(self, allocation):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        est = estimate(
            mp, psi, spc=300, seed=2, mode="shots", allocation=allocation
        )
        moments = list(mp.constants)
        for circuit, record in zip(mp.circuits, est.records):
            for mask, sign, coeffs in zip(
                circuit.z_masks.tolist(), circuit.signs.tolist(), circuit.coeffs.tolist()
            ):
                value = shot_mean_z(record, mask)
                for power, coeff in enumerate(coeffs):
                    if coeff:
                        moments[power] += coeff * sign * value
        assert est.moments == tuple(moments)

    def test_weighted_allocation_preserves_budget(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        est = estimate(
            mp, psi, spc=300, seed=1, mode="shots", allocation="weighted"
        )
        assert sum(r.spc for r in est.records) == 300 * mp.n_circuits
        assert len({r.spc for r in est.records}) > 1
        again = estimate(
            mp, psi, spc=300, seed=1, mode="shots", allocation="weighted"
        )
        assert est.moments == again.moments

    @settings(deadline=None)
    @given(
        # log-uniform, so a few heavy circuits meet many light ones
        weights=st.lists(
            st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=30
        ),
        spc=st.integers(1, 20),
    )
    # two heavy circuits and three light ones: the light floors once
    # overspent the budget and left the heaviest circuit with none
    @example(weights=[1.0, 1.0, 1e-3, 1e-3, 1e-3], spc=1)
    def test_weighted_allocation_gives_every_circuit_a_shot(self, weights, spc):
        # circuit k measures Z0 once with coefficient weights[k]
        circuits = tuple(
            PlanCircuit(Circuit(1), (Z0,), np.array([0b1]), np.array([1.0]),
                        np.array([[w, 0.0, 0.0, 0.0]]))
            for w in weights
        )
        mp = MeasurementPlan(1, circuits, (0.0, 0.0, 0.0, 0.0))
        est = estimate(mp, StateVector.basis_state(1, 0), spc=spc, seed=0,
                       mode="shots", allocation="weighted")
        counts = [r.spc for r in est.records]
        budget = spc * len(weights)
        assert min(counts) >= 1
        assert sum(counts) == budget
        # the proportional split with its rounding drift on the heaviest
        # circuit stands wherever it already gives every circuit a shot
        plain = [max(1, round(budget * w / sum(weights))) for w in weights]
        plain[weights.index(max(weights))] += budget - sum(plain)
        if min(plain) >= 1:
            assert counts == plain

    def test_validation(self):
        h = PauliSum(1, {Z0: 1.0})
        mp = plan(build_moments(h))
        psi = StateVector.basis_state(1, 0)
        with pytest.raises(ValueError, match="width"):
            estimate(mp, StateVector.basis_state(2, 0))
        with pytest.raises(ValueError, match="mode"):
            estimate(mp, psi, mode="fuzzy")
        with pytest.raises(ValueError, match="spc"):
            estimate(mp, psi, mode="shots")
        with pytest.raises(ValueError, match="allocation"):
            estimate(mp, psi, spc=10, mode="shots", allocation="magic")
        with pytest.raises(ValueError, match="allocation"):
            estimate(mp, psi, allocation="magic")
        with pytest.raises(KeyError):
            estimate(mp, psi)[5]


@pytest.fixture(scope="module")
def fixture_8q_moments():
    """H…H⁴ on the 8-qubit ``spin_polarized`` fixture."""
    h = jordan_wigner(parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text()))
    return build_moments(h)


@pytest.fixture(scope="module")
def fixture_8q_plan(fixture_8q_moments):
    """The 76-circuit full-mode plan of the 8-qubit fixture's moments."""
    return plan(fixture_8q_moments)


def assert_plan_matches_replay(mp: MeasurementPlan, mode: str) -> None:
    """Each circuit's gates, Z masks and signs equal the replay's, by ``==``;
    a qubitwise set's circuit holds one-qubit gates only."""
    for pc in mp.circuits:
        ops = qcm4._diagonalizing_ops(pc.terms, mp.n_qubits, mode)[0]
        gates = [g for op in ops for g in qcm4._schema_gates(op)]
        assert list(pc.clifford.gates) == gates
        if mode == "qubitwise":
            assert all(len(g.qubits) == 1 for g in gates)
            assert two_qubit_depth(pc.clifford) == 0
        z_masks, signs = replay_reference(pc.terms, ops, mp.n_qubits)
        assert pc.z_masks.tolist() == z_masks
        assert pc.signs.tolist() == signs


@st.composite
def sums_with_dependent_strings(draw):
    """Unit-weight sums on 2-8 qubits, most strings from one commuting family.

    The family is the products of Z0..Z(n-1) pushed through random h, s
    and cz generators (:func:`conjugate_reference`), so any more than n
    of its strings are dependent; a few random strings split it across
    commuting sets.
    """
    n = draw(st.integers(2, 8))
    qubit = st.integers(0, n - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("h"), qubit),
        st.tuples(st.just("s"), qubit),
        st.tuples(st.just("cz"), qubit, qubit).filter(lambda op: op[1] != op[2]),
    ), max_size=30))
    family = [conjugate_reference(0, 1 << q, ops)[:2] for q in range(n)]
    strings = set()
    picks = st.sets(st.integers(1, (1 << n) - 1), min_size=n + 1, max_size=24)
    for pick in draw(picks):
        x = z = 0
        for q, (gx, gz) in enumerate(family):
            if pick >> q & 1:
                x, z = x ^ gx, z ^ gz
        strings.add(PauliString(x, z))
    mask = st.integers(0, (1 << n) - 1)
    for x, z in draw(st.lists(st.tuples(mask, mask), max_size=6)):
        strings.add(PauliString(x, z))
    strings.discard(PauliString())
    return PauliSum(n, {s: 1.0 for s in strings})


class TestSingleTableauPass:
    """``plan`` carries the members through the pass that chooses the gates;
    its Z masks and signs equal a replay of the set after the fact."""

    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    def test_fixture_plan_equals_the_replay(self, fixture_8q_moments, mode):
        mp = plan(fixture_8q_moments, mode)
        # a commuting set of more than n strings has dependent members
        assert max(len(pc.terms) for pc in mp.circuits) > mp.n_qubits
        assert_plan_matches_replay(mp, mode)

    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    def test_fixture_moments_equal_the_dense_moments(self, fixture_8q_moments, mode):
        amps = np.zeros(256, dtype=complex)
        amps[[0b00010101, 0b01000101]] = [0.9, -0.4]
        psi = StateVector(8, amps / np.linalg.norm(amps))
        dense, acc, want = dense_sum(fixture_8q_moments.powers[0]), psi.amplitudes, []
        for _ in range(4):
            acc = dense @ acc
            want.append(np.vdot(psi.amplitudes, acc).real)
        got = estimate(plan(fixture_8q_moments, mode), psi).moments
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(deadline=None, max_examples=60)
    @given(h=sums_with_dependent_strings(), mode=st.sampled_from(["full", "qubitwise"]))
    def test_random_sets_equal_the_replay(self, h, mode):
        m = qcm4.MomentOperators((h, h, h, h), (0.0, 0.0, 0.0, 0.0))
        assert_plan_matches_replay(plan(m, mode), mode)


def assert_arrays_match_moments(m: qcm4.MomentOperators, mp: MeasurementPlan) -> None:
    """Each distinct non-identity string of H…H⁴ is measured in exactly one
    circuit, its coefficient row holds its coefficient in each power (0
    where the power lacks it), and the constants are the identity's."""
    measured = [s for pc in mp.circuits for s in pc.terms]
    distinct = {s for p in m.powers for s, _ in p.terms() if s != PauliString()}
    assert len(measured) == len(set(measured))
    assert set(measured) == distinct
    for pc in mp.circuits:
        assert pc.z_masks.dtype == np.int64 and pc.z_masks.shape == (len(pc.terms),)
        assert pc.signs.dtype == np.float64 and set(pc.signs.tolist()) <= {-1.0, 1.0}
        assert pc.coeffs.shape == (len(pc.terms), 4)
        for row, string in zip(pc.coeffs.tolist(), pc.terms):
            assert row == [coefficient(p, string).real for p in m.powers]
    assert mp.constants == tuple(coefficient(p, PauliString()).real for p in m.powers)


class TestPlanArrays:
    """``plan``'s masks, signs and coefficient rows against the moment
    operators they came from."""

    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_fixture_arrays_equal_the_moments(self, fixture_8q_moments, mode, filtered):
        m = fixture_8q_moments
        if filtered:
            # three alpha determinants: the filter keeps the Z strings and
            # the strings that hop between them
            amps = np.zeros(256, dtype=complex)
            amps[[0b00010101, 0b01000101, 0b01010001]] = [0.8, 0.5, -0.33]
            psi = StateVector(8, amps / np.linalg.norm(amps))
            m, report = pauli_filter(m, psi)
            assert report.audited and any(s.x_mask for p in m.powers for s, _ in p.terms())
        assert_arrays_match_moments(m, plan(m, mode))

    @settings(deadline=None, max_examples=40)
    @given(
        h=eig_sums(),
        mode=st.sampled_from(["full", "qubitwise"]),
        basis=st.integers(0, 63) | st.none(),
    )
    def test_random_arrays_equal_the_moments(self, h, mode, basis):
        m = build_moments(h)
        if basis is not None:
            psi = StateVector.basis_state(h.n_qubits, basis % (1 << h.n_qubits))
            m, _ = pauli_filter(m, psi)
        assert_arrays_match_moments(m, plan(m, mode))


class TestArrayPathsAgainstLoops:
    """The array paths of ``estimate`` reproduce their loops bit for bit."""

    @pytest.mark.parametrize("spc", [None, 1000])
    def test_estimate_equals_the_circuit_loop(self, fixture_8q_plan, spc):
        mp = fixture_8q_plan
        assert mp.n_circuits == 76
        psi = StateVector(8, random_state(np.random.default_rng(3), 8))
        mode = "exact" if spc is None else "shots"
        est = estimate(mp, psi, spc=spc, seed=5, mode=mode)
        assert est.moments == estimate_reference(mp, psi, spc, seed=5)

    def test_add_terms_equals_the_term_loop(self, fixture_8q_plan):
        rng = np.random.default_rng(1)
        got = rng.normal(size=4)
        want = got[None].copy()
        # Z0 enters H and H^3 only, Z1 H^3 only, and no string H^2 or H^4
        partial = PlanCircuit(
            Circuit(8), (Z0, Z1), np.array([0b01, 0b10]), np.array([1.0, -1.0]),
            np.array([[0.5, 0.0, 0.125, 0.0], [0.0, 0.0, -2.0, 0.0]]),
        )
        for circuit in (*fixture_8q_plan.circuits, partial):
            values = rng.normal(size=len(circuit.terms))
            qcm4._add_terms(got, circuit, values)
            add_terms_reference(want, circuit, values[None])
        assert np.array_equal(got, want[0])


class TestCumulants:
    def test_eigenstate_pattern(self):
        e = -1.7
        assert cumulants((e, e**2, e**3, e**4)) == pytest.approx(
            (e, 0.0, 0.0, 0.0), abs=1e-12
        )

    def test_hand_values_doubling(self):
        assert cumulants((1, 2, 4, 8)) == pytest.approx((1, 1, 0, -2))

    def test_hand_values_half(self):
        got = cumulants((0.5, 0.5, 0.5, 0.5))
        assert got == pytest.approx((0.5, 0.25, 0.0, -0.125))

    def test_half_moments_realized_by_projector(self):
        # H = (I - X0)/2 on |0> has <H^n> = 1/2 for every n
        h = PauliSum(1, {PauliString(): 0.5, X0: -0.5})
        est = estimate(plan(build_moments(h)), StateVector.basis_state(1, 0))
        assert est.moments == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-12)

    def test_length_validation(self):
        with pytest.raises(ValueError, match="four"):
            cumulants((1.0, 2.0, 3.0))


class TestEnergy:
    def test_eigenstate_guard(self):
        assert energy((-2.5, 0.0, 0.0, 0.0)) == -2.5
        assert energy((1.0, 5e-11, 3.0, 9.0)) == 1.0

    def test_hand_value_third(self):
        assert energy((1, 1, 0, -2)) == pytest.approx(1 / 3, abs=1e-12)

    def test_hand_value_five_twelfths(self):
        assert energy((0.5, 0.25, 0.0, -0.125)) == pytest.approx(
            5 / 12, abs=1e-12
        )

    def test_discriminant_clamped_within_tolerance(self):
        # 3c3^2 - 2c2c4 = -5e-10: inside the clamp band
        got = energy((0.0, 1.0, 0.0, 2.5e-10))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_discriminant_hard_error(self):
        with pytest.raises(ValueError, match="discriminant"):
            energy((0.0, 1.0, 0.0, 1.0))

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            energy((0.0, 1.0, 1.0, 1.0))


class TestBootstrap:
    def test_zero_variance_gives_zero_std(self):
        h = PauliSum(2, {Z0: 0.8, Z1: -0.5})
        mp = plan(build_moments(h))
        est = estimate(
            mp, StateVector.basis_state(2, 0b01), spc=50, seed=0, mode="shots"
        )
        bs = bootstrap(est, resamples=100, seed=0)
        assert bs.std == 0.0
        assert bs.mean == pytest.approx(energy(cumulants(est)), abs=1e-12)

    def test_std_ratio_tracks_sqrt_spc(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        ratios = []
        for seed in (2, 3, 4):
            stds = []
            for spc in (100, 10_000):
                est = estimate(mp, psi, spc=spc, seed=seed, mode="shots")
                stds.append(bootstrap(est, resamples=500, seed=seed).std)
            ratios.append(stds[0] / stds[1])
        assert 7.0 <= float(np.median(ratios)) <= 13.0

    def test_determinism(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        est = estimate(mp, psi, spc=400, seed=7, mode="shots")
        a = bootstrap(est, resamples=60, seed=9)
        b = bootstrap(est, resamples=60, seed=9)
        c = bootstrap(est, resamples=60, seed=10)
        assert (a.mean, a.std) == (b.mean, b.std)
        assert (a.mean, a.std) != (c.mean, c.std)

    def test_resampled_moments_equal_the_term_loop(self, monkeypatch):
        h, psi = h2_problem()
        est = estimate(plan(build_moments(h)), psi, spc=400, seed=7, mode="shots")
        rows = []
        real = qcm4.cumulants
        monkeypatch.setattr(qcm4, "cumulants", lambda row: rows.append(row) or real(row))
        bootstrap(est, resamples=60, seed=9)
        want = bootstrap_moments_reference(est, 60, 9)
        # outcome weights add in another order than the term loop: a few
        # ulp of the largest moment
        assert np.allclose(rows, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_exact_mode_rejected(self):
        h, psi = h2_problem()
        est = estimate(plan(build_moments(h)), psi)
        with pytest.raises(ValueError, match="shot records"):
            bootstrap(est)

    def test_resample_count_validation(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        est = estimate(mp, psi, spc=50, seed=0, mode="shots")
        with pytest.raises(ValueError, match="resamples"):
            bootstrap(est, resamples=1)

    def test_csv_shape(self):
        h, psi = h2_problem()
        mp = plan(build_moments(h))
        est = estimate(mp, psi, spc=50, seed=0, mode="shots")
        bs = bootstrap(est, resamples=25, seed=1)
        lines = bs.to_csv().strip().splitlines()
        assert lines[0] == "resample,energy"
        assert len(lines) == 26
        assert float(lines[1].split(",")[1]) == pytest.approx(
            float(bs.energies[0])
        )


class TestPipelineInvariants:
    def test_end_to_end_exactness_on_fixtures(self):
        h2, ci = h2_problem()
        toy = toy_3q()
        rng = np.random.default_rng(51)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        cases = [
            (h2, ci),
            (toy, StateVector(3, v / np.linalg.norm(v))),
        ]
        for h, psi in cases:
            est = estimate(plan(build_moments(h)), psi)
            got = energy(cumulants(est))
            assert got == pytest.approx(dense_qcm4(h, psi), abs=1e-10)

    def test_filtering_never_shifts_exact_energy(self):
        rng = np.random.default_rng(52)
        h = random_sum(rng, 3, 6)
        m = build_moments(h)
        for basis in (0b000, 0b101):
            psi = StateVector.basis_state(3, basis)
            fm, _ = pauli_filter(m, psi)
            e_full = energy(cumulants(estimate(plan(m), psi)))
            e_filt = energy(cumulants(estimate(plan(fm), psi)))
            assert abs(e_full - e_filt) < 1e-10

    def test_truncation_shift_below_one_mha(self):
        h, psi = h2_problem()
        e_full = energy(cumulants(estimate(plan(build_moments(h)), psi)))
        m_cut = build_moments(h, threshold=1e-3)
        e_cut = energy(cumulants(estimate(plan(m_cut), psi)))
        assert abs(e_cut - e_full) <= 1e-3

    def test_term_count_saturation_on_closing_algebra(self):
        h = PauliSum(
            2, {X0: 1.0, Z0: 0.7, PauliString(0b10, 0): 0.5, Z1: 0.4, Z0Z1: 0.3}
        )
        m = build_moments(h)
        assert m.term_counts == (5, 7, 9, 9)
        assert m.term_counts[2] == m.term_counts[3]

    def test_two_point_state_gives_bernoulli_cumulants(self):
        rng = np.random.default_rng(53)
        h = random_sum(rng, 2, 5)
        vals, vecs = np.linalg.eigh(dense_sum(h))
        p, q = 0.3, 0.7
        psi = StateVector(
            2, math.sqrt(p) * vecs[:, 0] + math.sqrt(q) * vecs[:, 2]
        )
        got = cumulants(estimate(plan(build_moments(h)), psi))
        delta = vals[0] - vals[2]
        want = (
            p * vals[0] + q * vals[2],
            p * q * delta**2,
            p * q * (q - p) * delta**3,
            p * q * (1 - 6 * p * q) * delta**4,
        )
        assert got == pytest.approx(want, abs=1e-10)


class TestResultAndReport:
    def test_result_from_exact_estimates(self):
        h, psi = h2_problem()
        est = estimate(plan(build_moments(h)), psi)
        cums = cumulants(est)
        assert cums[0] == pytest.approx(est[1])
        assert cums[0] == pytest.approx(expectation(psi, h).real, abs=1e-12)

    def test_eigenstate_energy_equals_c1(self):
        rng = np.random.default_rng(54)
        h = random_sum(rng, 2, 4)
        _, vecs = np.linalg.eigh(dense_sum(h))
        est = estimate(plan(build_moments(h)), StateVector(2, vecs[:, 0]))
        cums = cumulants(est)
        assert energy(cums) == cums[0]

    def test_moment_report_contents(self):
        h, psi = h2_problem()
        m = build_moments(h, threshold=1e-3)
        fm, rep = pauli_filter(m, psi)
        mp = plan(fm)
        payload = moment_report(m, mp, rep)
        assert payload["term_counts"] == list(m.term_counts)
        assert payload["n_circuits"] == mp.n_circuits
        assert payload["dropped_weights"] == list(m.dropped)
        assert payload["filter"]["survivors"] == list(rep.survivors)
        assert payload["filter"]["dropped"] == len(rep.audited)

    def test_moment_report_without_filter(self):
        h, psi = h2_problem()
        m = build_moments(h)
        payload = moment_report(m, plan(m))
        assert payload["filter"] is None
        assert payload["dropped_weights"] == [0.0, 0.0, 0.0, 0.0]
