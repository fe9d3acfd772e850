"""Thirteen end-to-end checks of the toolkit's headline behaviors.

One test per behavior, each with its stated tolerance, so a verbose run
prints one pass/fail line apiece: ansatz accounting, sampling-error
calibration, phase-estimation recovery in all three modes, cumulant
hand values, moment-method exactness and shot statistics, coefficient
truncation, expectation filtering, Trotter order, symmetry tapering,
and measurement-grouping soundness.
"""

import itertools
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from helpers import circuit_unitary, eig, random_sum
from gsee.chem import (
    ci_initial_state,
    determinants_from_json,
    fix_qubits,
    jordan_wigner,
    parse_fcidump,
    taper_state,
    taper_z2,
)
from gsee.circuits import hea_ansatz, trotter_step, two_qubit_depth
from gsee.pauli import PauliString, PauliSum
from gsee.qcels import acquire, choose_grid, fit, hadamard_test_states, scale, std_error
from gsee.qcm4 import (
    bootstrap,
    build_moments,
    cumulants,
    energy,
    estimate,
    pauli_filter,
    plan,
)
from gsee.recompile import CompileConfig, compile_series
from gsee.simulator import StateVector, expectation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"


def load_molecule(stem):
    h = jordan_wigner(parse_fcidump((FIXTURES / f"{stem}.fcidump").read_text()))
    _, dets = determinants_from_json((FIXTURES / f"{stem}_ci.json").read_text())
    return h, ci_initial_state(dets, 0.0, h.n_qubits)


@pytest.fixture(scope="module")
def h2():
    return load_molecule("h2_eq")


@pytest.fixture(scope="module")
def h2_tapered(h2):
    """H2 reduced to two qubits along the per-spin particle parities."""
    h, ci = h2
    report = taper_z2(
        h, 0b0011,
        generators=[PauliString.from_label("Z0 Z2"),
                    PauliString.from_label("Z1 Z3")],
    )
    return report.reduced, taper_state(report, ci)


@pytest.fixture(scope="module")
def toy():
    h = PauliSum.from_json((FIXTURES / "toy_3q.json").read_text())
    vals, vecs = eig(h)
    return h, StateVector(3, vecs[:, 0]), float(vals[0])


@pytest.fixture(scope="module")
def spin_polarized_sector():
    """Fully polarized fixture pinned to its empty-beta sector."""
    fi = parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text())
    h = fix_qubits(jordan_wigner(fi), {2 * p + 1: ("Z", 1) for p in range(fi.norb)})
    return h, StateVector.basis_state(h.n_qubits, 0b0111)


def dense_fourth_order_energy(h, psi):
    """Independent oracle: matrix-power moments, hand-coded cumulant formula."""
    dense = h.to_dense()
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


def phase_estimate(h, psi, mode="exact", spc=None, seed=0, compilation=None):
    sh = scale(h, psi)
    tau = choose_grid(sh, 33)
    series = acquire(sh, tau, 33, mode, spc, seed, compilation)
    return fit(series, sh).energy


def test_01_ansatz_parameter_and_depth_accounting():
    """Six-layer ansatz widths map to frozen parameter/depth integers."""
    widths = (3, 5, 7, 9, 11, 15, 8, 9, 19)
    params = (75, 129, 183, 237, 291, 399, 210, 237, 507)
    depths = (12, 24, 36, 48, 60, 84, 42, 48, 108)
    for n, n_params, depth in zip(widths, params, depths):
        circuit, _ = hea_ansatz(n, 6)
        assert circuit.n_params == n_params
        assert two_qubit_depth(circuit) == depth


def test_02_sampling_error_formula_and_empirical_match(h2_tapered):
    """std_error endpoints are exact and calibrate 200 seeded repetitions."""
    assert std_error(0.0, 100) == pytest.approx(0.100, abs=1e-12)
    assert std_error(0.0, 500) == pytest.approx(0.0447, abs=5e-4)
    h, psi = h2_tapered
    sh = scale(h, psi)
    tau = choose_grid(sh, 33)
    true_re = acquire(sh, tau, 3, "exact").values[2].real
    draws = [
        acquire(sh, tau, 3, "shots", 100, seed).values[2].real
        for seed in range(200)
    ]
    predicted = std_error(true_re, 100)
    assert abs(float(np.std(draws, ddof=1)) - predicted) <= 0.2 * predicted


def test_03_exact_mode_phase_estimation_recovery(h2_tapered):
    """Exact-mode fits recover dense ground energies to 1e-6 * max(1, h1)."""
    h, psi = h2_tapered
    vals, vecs = eig(h)
    assert abs(np.vdot(vecs[:, 0], psi.amplitudes)) ** 2 >= 0.96
    assert abs(phase_estimate(h, psi) - vals[0]) <= 1e-6 * max(1.0, scale(h, psi).h1)
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        h = random_sum(rng, 3, 8, hermitian=True)
        vals, vecs = eig(h)
        ground = StateVector(3, vecs[:, 0])
        err = abs(phase_estimate(h, ground) - vals[0])
        assert err <= 1e-6 * max(1.0, scale(h, ground).h1)


def test_04_shot_mode_accuracy_improves_with_budget(h2_tapered):
    """Median shot-mode error over 20 seeds: <= 5 mHa at 100 shots,
    strictly smaller at 500."""
    h, psi = h2_tapered
    reference = phase_estimate(h, psi)
    errors = {100: [], 500: []}
    for seed in range(20):
        for spc, accum in errors.items():
            accum.append(abs(phase_estimate(h, psi, "shots", spc, seed) - reference))
    median_100 = float(np.median(errors[100]))
    median_500 = float(np.median(errors[500]))
    assert median_100 <= 5e-3
    assert median_500 < median_100


def test_05_recompiled_pipeline_fidelity_and_energy(toy):
    """33 six-layer compilations reach mean fidelity >= 0.999 and shift
    the fitted energy by <= 1 mHa."""
    h, psi, _ = toy
    sh = scale(h, psi)
    tau = choose_grid(sh, 33)
    reference = phase_estimate(h, psi)
    targets = hadamard_test_states(sh, tau, 33)
    ansatz, _ = hea_ansatz(psi.n_qubits + 1, 6)
    compilation = compile_series(
        targets, ansatz,
        CompileConfig(max_iterations=300, restarts=4, seed=0),
        layers=6,
    )
    assert compilation.mean_fidelity >= 0.999
    recompiled = phase_estimate(h, psi, "recompiled", compilation=compilation)
    assert abs(recompiled - reference) <= 1e-3


def test_06_cumulant_hand_values_and_eigenstate_guard():
    """Frozen hand values: (1,2,4,8) -> 1/3, all-half moments -> 5/12,
    eigenstate moments -> first cumulant."""
    cums = cumulants((1.0, 2.0, 4.0, 8.0))
    assert cums == pytest.approx((1.0, 1.0, 0.0, -2.0), abs=1e-12)
    assert energy(cums) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert energy(cumulants((0.5, 0.5, 0.5, 0.5))) == pytest.approx(
        5.0 / 12.0, abs=1e-12
    )
    e = -0.73
    assert energy(cumulants((e, e**2, e**3, e**4))) == pytest.approx(e, abs=1e-12)


def test_07_moment_energy_matches_dense_oracle(h2):
    """Exact-mode fourth-order energy equals the independent dense
    evaluation to 1e-10, with and without expectation filtering."""
    h, psi = h2
    oracle = dense_fourth_order_energy(h, psi)
    m = build_moments(h)
    plain = energy(cumulants(estimate(plan(m), psi)))
    assert plain == pytest.approx(oracle, abs=1e-10)
    filtered, _ = pauli_filter(m, psi)
    kept = energy(cumulants(estimate(plan(filtered), psi)))
    assert kept == pytest.approx(oracle, abs=1e-10)


def test_08_bootstrap_std_scales_with_shot_budget(h2):
    """Bootstrap std <= 3 mHa at 10^4 shots and the 10^2/10^4 std ratio
    stays within 10 +/- 30% (median over three seeds)."""
    h, psi = h2
    measurement_plan = plan(build_moments(h))
    ratios = []
    for seed in (2, 3, 4):
        stds = {}
        for spc in (100, 10_000):
            est = estimate(measurement_plan, psi, spc=spc, seed=seed, mode="shots")
            stds[spc] = bootstrap(est, 500, seed).std
        assert stds[10_000] <= 3e-3
        ratios.append(stds[100] / stds[10_000])
    assert 7.0 <= float(np.median(ratios)) <= 13.0


def test_09_coefficient_truncation_shift_is_small(h2):
    """A 1e-3 coefficient threshold moves the exact energy by <= 1 mHa."""
    h, psi = h2
    full = energy(cumulants(estimate(plan(build_moments(h)), psi)))
    truncated = energy(
        cumulants(estimate(plan(build_moments(h, threshold=1e-3)), psi))
    )
    assert abs(truncated - full) <= 1e-3


def test_10_filtered_basis_state_runs_are_deterministic(spin_polarized_sector):
    """On a basis state, filtering leaves only Z strings and one circuit,
    and any shot budget reproduces the exact energy."""
    h, psi = spin_polarized_sector
    filtered, _ = pauli_filter(build_moments(h), psi)
    assert all(
        s.x_mask == 0 for power in filtered.powers for s, _ in power.terms()
    )
    measurement_plan = plan(filtered)
    assert measurement_plan.n_circuits == 1
    exact = energy(cumulants(estimate(measurement_plan, psi)))
    for spc in (1, 3, 17):
        est = estimate(measurement_plan, psi, spc=spc, seed=5, mode="shots")
        assert energy(cumulants(est)) == exact


def test_11_trotter_error_is_second_order_in_step():
    """Halving the step divides the one-step error by 3.5 to 4.5."""
    h = PauliSum(2, {
        PauliString.from_label("X0"): 1.0,
        PauliString.from_label("Z0"): 0.7,
        PauliString.from_label("X1"): 0.5,
        PauliString.from_label("Z0 Z1"): 0.3,
    })
    dense = h.to_dense()

    def error(tau):
        u = circuit_unitary(trotter_step(h, tau))
        return np.linalg.norm(u - scipy.linalg.expm(-1j * tau * dense), 2)

    for tau in (0.4, 0.2, 0.1):
        assert 3.5 <= error(tau) / error(tau / 2) <= 4.5


def test_12_tapered_ground_energy_matches_sector(h2):
    """Full-kernel tapering reproduces the symmetry-sector ground energy."""
    h, _ = h2
    report = taper_z2(h, 0b0011)
    dense = h.to_dense()
    indices = []
    for b in range(1 << h.n_qubits):
        if all(
            1 - 2 * (bin(b & g.z_mask).count("1") & 1) == sign
            for g, sign in zip(report.generators, report.sector_signs)
        ):
            indices.append(b)
    sector_ground = float(np.linalg.eigvalsh(dense[np.ix_(indices, indices)])[0])
    tapered_ground = float(eig(report.reduced)[0][0])
    assert tapered_ground == pytest.approx(sector_ground, abs=1e-10)


def test_13_grouping_soundness_on_every_fixture(
    h2, toy, spin_polarized_sector
):
    """Plan sets commute pairwise (dense check), cover each string once,
    and reproduce direct expectations to 1e-10."""
    cases = [
        h2,
        load_molecule("h2_stretched"),
        toy[:2],
        spin_polarized_sector,
    ]
    for h, psi in cases:
        m = build_moments(h)
        measurement_plan = plan(m)
        distinct = set()
        for power in m.powers:
            distinct.update(
                s for s, _ in power.terms() if s.x_mask or s.z_mask
            )
        covered = [s for c in measurement_plan.circuits for s in c.terms]
        assert len(covered) == len(set(covered)) == len(distinct)
        n = h.n_qubits
        for circuit in measurement_plan.circuits:
            mats = [
                PauliSum(n, {s: 1.0}).to_dense() for s in circuit.terms
            ]
            for a, b in itertools.combinations(mats, 2):
                assert np.linalg.norm(a @ b - b @ a) < 1e-12
        est = estimate(measurement_plan, psi)
        for k in range(4):
            direct = expectation(psi, m.powers[k]).real
            assert abs(est.moments[k] - direct) < 1e-10
