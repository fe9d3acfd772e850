"""Recompilation tests: gradient correctness, convergence, and reporting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state, shift_gradient
from gsee import recompile
from gsee.circuits import hea_ansatz
from gsee.recompile import (
    CompilationResult,
    CompileConfig,
    SeriesCompilation,
    compile_series,
)
from gsee.simulator import (
    CompiledCircuit,
    StateVector,
    derived_rng,
    overlap_gradient,
    simulate_batch,
)


def zero_amps(n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def compile_one(target, ansatz, config=CompileConfig()):
    """One target's compilation: a series of that target alone."""
    return compile_series(target.amplitudes[None], ansatz, config).results[0]


def rows(targets):
    """The (T, 2^n) target array of a list of states."""
    return np.array([t.amplitudes for t in targets])


def seeded_starts(config, n_params, first=None):
    """compile_series' seeded (restarts, n_params) starts, with row 0
    replaced by ``first`` when it is given."""
    start = derived_rng(config.seed).uniform(
        -math.pi, math.pi, size=(config.restarts, n_params)
    )
    if first is not None:
        start[0] = first
    return start


def compile_from(target, ansatz, config, start):
    """One target's compilation from the chosen starts."""
    results, _ = recompile._compile(
        CompiledCircuit(ansatz), target.amplitudes[None], config, start
    )
    return results[0]


def objective(ansatz, target, thetas):
    states = simulate_batch(ansatz, zero_amps(ansatz.n_qubits), thetas)
    return 2.0 - 2.0 * (states @ target.amplitudes.conj()).real


class TestGradient:
    def test_shift_rule_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        ansatz, spec = hea_ansatz(2, 2)
        target = StateVector(2, random_state(rng, 2))
        theta = rng.uniform(-np.pi, np.pi, spec.n_params)
        _, shift = shift_gradient(ansatz, target.amplitudes, theta[None])
        shift_grad = -2.0 * shift[0].real
        step = 1e-5
        fd_grad = np.empty(spec.n_params)
        for j in range(spec.n_params):
            up, down = theta.copy(), theta.copy()
            up[j] += step
            down[j] -= step
            plus, minus = objective(ansatz, target, np.stack([up, down]))
            fd_grad[j] = (plus - minus) / (2 * step)
        assert np.max(np.abs(shift_grad - fd_grad)) < 1e-6


class TestCompileState:
    def test_known_parameters_are_a_fixed_point(self):
        rng = np.random.default_rng(11)
        ansatz, spec = hea_ansatz(3, 2)
        star = rng.uniform(-np.pi, np.pi, spec.n_params)
        target_amps = simulate_batch(ansatz, zero_amps(3), star[None])[0]
        config = CompileConfig(seed=0)
        res = compile_from(
            StateVector(3, target_amps),
            ansatz,
            config,
            seeded_starts(config, spec.n_params, star),
        )
        assert res.objective < 1e-12
        assert res.fidelity > 1 - 1e-10
        assert res.restart == 0

    def test_haar_random_targets_reach_high_fidelity(self):
        rng = np.random.default_rng(23)
        ansatz, _ = hea_ansatz(3, 6)
        for k in range(5):
            target = StateVector(3, random_state(rng, 3))
            res = compile_one(
                target, ansatz, CompileConfig(seed=100 + k, tolerance=1e-8)
            )
            assert res.fidelity >= 0.999

    def test_final_objective_not_above_initial(self):
        rng = np.random.default_rng(31)
        ansatz, spec = hea_ansatz(2, 1)
        target = StateVector(2, random_state(rng, 2))
        init = rng.uniform(-np.pi, np.pi, (1, spec.n_params))
        initial_obj = objective(ansatz, target, init)[0]
        res = compile_from(
            target, ansatz, CompileConfig(seed=2, restarts=1, max_iterations=5), init
        )
        assert res.objective <= initial_obj + 1e-12

    def test_objective_fidelity_bound(self):
        rng = np.random.default_rng(37)
        ansatz, _ = hea_ansatz(2, 2)
        for k in range(3):
            target = StateVector(2, random_state(rng, 2))
            res = compile_one(
                target, ansatz, CompileConfig(seed=k, max_iterations=60)
            )
            assert res.objective >= 2.0 * (1.0 - np.sqrt(res.fidelity)) - 1e-12

    def test_relative_ancilla_phase_reproduced(self):
        # target (|0> + e^{i phi}|1>)/sqrt(2) (x) |branch>
        rng = np.random.default_rng(41)
        phi = 0.731
        branch = random_state(rng, 2)
        amps = np.zeros(8, dtype=complex)
        idx = np.arange(4)
        amps[idx << 1] = branch / np.sqrt(2.0)
        amps[(idx << 1) | 1] = np.exp(1j * phi) * branch / np.sqrt(2.0)
        ansatz, _ = hea_ansatz(3, 6)
        res = compile_one(
            StateVector(3, amps),
            ansatz,
            CompileConfig(seed=7, max_iterations=700, tolerance=1e-13),
        )
        assert res.fidelity > 1 - 1e-6
        compiled = simulate_batch(ansatz, zero_amps(3), res.parameters[None])[0]
        got_phase = np.angle(np.vdot(compiled[idx << 1], compiled[(idx << 1) | 1]))
        assert abs(got_phase - phi) < 1e-4

    def test_diverged_objective_raises(self):
        ansatz, spec = hea_ansatz(2, 1)
        config = CompileConfig(seed=0)
        bad = seeded_starts(config, spec.n_params, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            compile_from(StateVector.basis_state(2, 0), ansatz, config, bad)

    def test_input_validation(self):
        ansatz, _ = hea_ansatz(2, 1)
        with pytest.raises(ValueError, match="widths"):
            compile_one(StateVector.basis_state(3, 0), ansatz, CompileConfig())
        with pytest.raises(ValueError, match="norm 1"):
            compile_series(np.ones((1, 4)), ansatz, CompileConfig())
        with pytest.raises(ValueError, match="iteration"):
            CompileConfig(max_iterations=0)

    @pytest.mark.parametrize("rate", [0.0, -0.05, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            CompileConfig(learning_rate=rate)

    @pytest.mark.parametrize("tolerance", [-1e-12, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            CompileConfig(tolerance=tolerance)


def one_target_reference(target, ansatz, config, start):
    """compile_series' documented Adam loop for one target from the
    (restarts, n_params) ``start``, written out.

    Each iteration scores its restarts by a forward sweep and one
    (restarts, 2^n) @ (2^n,) product, and takes their gradient from
    overlap_gradient.
    """
    compiled = CompiledCircuit(ansatz)
    amps = target.amplitudes
    zero = zero_amps(ansatz.n_qubits)
    thetas = start.copy()

    def score(thetas):
        return 2.0 - 2.0 * (compiled.simulate(zero, thetas) @ amps.conj()).real

    best_obj = np.full(len(start), np.inf)
    best = thetas.copy()
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    iterations = config.max_iterations
    for it in range(1, config.max_iterations + 2):
        objs = score(thetas)
        improved = objs < best_obj
        best_obj = np.where(improved, objs, best_obj)
        best[improved] = thetas[improved]
        if it > config.max_iterations:
            break
        if best_obj.min() <= config.tolerance:
            iterations = it
            break
        grad = -2.0 * overlap_gradient(compiled, amps, thetas)[1].real
        lr = config.learning_rate * 0.5 * (
            1.0 + math.cos(math.pi * (it - 1) / config.max_iterations)
        )
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad**2
        thetas = thetas - lr * (m / (1.0 - 0.9**it)) / (
            np.sqrt(v / (1.0 - 0.999**it)) + 1e-8
        )
    winner = int(np.argmin(best_obj))
    overlap = complex(amps.conj() @ compiled.simulate(zero, best[winner][None])[0])
    return CompilationResult(
        parameters=best[winner],
        objective=float(2.0 - 2.0 * overlap.real),
        fidelity=float(abs(overlap) ** 2),
        iterations=iterations,
        seed=config.seed,
        restart=winner,
    )


def reachable_series(n_qubits, layers, max_iterations, tolerance):
    """Five targets whose compilations stop at different iterations.

    Four are states of the ansatz itself and one is Haar-random.
    """
    rng = np.random.default_rng(7)
    ansatz, spec = hea_ansatz(n_qubits, layers)
    targets = []
    for k in range(5):
        if k == 2:
            targets.append(StateVector(n_qubits, random_state(rng, n_qubits)))
        else:
            star = rng.uniform(-np.pi, np.pi, (1, spec.n_params))
            amps = simulate_batch(ansatz, zero_amps(n_qubits), star)[0]
            targets.append(StateVector(n_qubits, amps))
    config = CompileConfig(seed=5, max_iterations=max_iterations, tolerance=tolerance)
    return targets, ansatz, config


# loose: some targets stop early and the rest are re-scored after the last
# step; converged: every target stops within an ulp of the tolerance, where
# the last bit of each overlap decides the exit and the kept parameters
SERIES = {"loose": (3, 3, 150, 1e-4), "converged": (2, 2, 400, 1e-15)}


class TestCompileSeries:
    @pytest.mark.parametrize("case", SERIES)
    def test_batch_equals_one_compile_state_per_target(self, case):
        targets, ansatz, config = reachable_series(*SERIES[case])
        series = compile_series(rows(targets), ansatz, config)
        alone = [compile_one(t, ansatz, config) for t in targets]
        iterations = [r.iterations for r in series.results]
        assert len(set(iterations)) >= 3
        assert (config.max_iterations in iterations) == (case == "loose")
        start = seeded_starts(config, ansatz.n_params)
        reference = [one_target_reference(t, ansatz, config, start) for t in targets]
        for got, want in zip(series.results, reference, strict=True):
            assert np.array_equal(got.parameters, want.parameters)
            assert (got.objective, got.fidelity, got.iterations, got.restart) == (
                want.objective, want.fidelity, want.iterations, want.restart
            )
        looped = SeriesCompilation(ansatz.n_qubits, None, tuple(alone), series.states)
        assert series.to_json() == looped.to_json()

    def test_group_budget_is_invisible(self, monkeypatch):
        targets, ansatz, config = reachable_series(*SERIES["loose"])
        whole = compile_series(rows(targets), ansatz, config).to_json()
        # a budget of one amplitude leaves one target per batch
        monkeypatch.setattr(recompile, "_GROUP_AMPLITUDES", 1)
        assert compile_series(rows(targets), ansatz, config).to_json() == whole

    def test_states_are_the_winners_prepared_states(self, monkeypatch):
        targets, ansatz, config = reachable_series(*SERIES["loose"])
        series = compile_series(rows(targets), ansatz, config)
        zero = zero_amps(ansatz.n_qubits)
        want = [simulate_batch(ansatz, zero, r.parameters[None])[0] for r in series.results]
        assert series.states.tobytes() == np.array(want).tobytes()
        # one target per batch prepares the same rows
        monkeypatch.setattr(recompile, "_GROUP_AMPLITUDES", 1)
        alone = compile_series(rows(targets), ansatz, config).states
        assert alone.tobytes() == series.states.tobytes()

    def test_identical_targets_give_identical_results(self):
        rng = np.random.default_rng(51)
        ansatz, _ = hea_ansatz(2, 1)
        target = StateVector(2, random_state(rng, 2))
        series = compile_series(
            rows([target] * 5),
            ansatz,
            CompileConfig(seed=4, max_iterations=40),
        )
        first = series.results[0]
        for r in series.results[1:]:
            assert np.array_equal(r.parameters, first.parameters)
            assert r.objective == first.objective
        assert series.mean_fidelity == series.min_fidelity == series.max_fidelity

    def test_mean_is_arithmetic_mean(self):
        rng = np.random.default_rng(57)
        ansatz, _ = hea_ansatz(2, 1)
        targets = [StateVector(2, random_state(rng, 2)) for _ in range(4)]
        series = compile_series(
            rows(targets), ansatz, CompileConfig(seed=1, max_iterations=30)
        )
        fids = [r.fidelity for r in series.results]
        assert series.mean_fidelity == pytest.approx(np.mean(fids), abs=1e-12)
        assert series.min_fidelity <= series.mean_fidelity <= series.max_fidelity

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n_targets=st.integers(2, 5),
        max_iterations=st.integers(1, 30),
    )
    def test_target_order_is_invisible(self, data, seed, n_targets, max_iterations):
        rng = np.random.default_rng(seed)
        ansatz, _ = hea_ansatz(2, 1)
        targets = np.array([random_state(rng, 2) for _ in range(n_targets)])
        order = data.draw(st.permutations(range(n_targets)))
        config = CompileConfig(seed=seed % 7, max_iterations=max_iterations)
        series = compile_series(targets, ansatz, config)
        permuted = compile_series(targets[order], ansatz, config)
        assert permuted.states.tobytes() == series.states[order].tobytes()
        for got, want in zip(permuted.results, [series.results[t] for t in order]):
            assert got.parameters.tobytes() == want.parameters.tobytes()
            assert (got.objective, got.fidelity, got.iterations, got.restart) == (
                want.objective, want.fidelity, want.iterations, want.restart
            )

    def test_json_round_trip(self):
        rng = np.random.default_rng(67)
        ansatz, _ = hea_ansatz(2, 1)
        targets = [StateVector(2, random_state(rng, 2)) for _ in range(2)]
        series = compile_series(
            rows(targets), ansatz, CompileConfig(seed=9, max_iterations=20), layers=1
        )
        payload = json.loads(series.to_json())
        assert payload["n_qubits"] == series.n_qubits
        assert payload["layers"] == 1
        assert payload["mean_fidelity"] == series.mean_fidelity
        assert len(payload["results"]) == len(series.results)
        for entry, result in zip(payload["results"], series.results):
            assert np.array_equal(entry["parameters"], result.parameters)
            assert entry["fidelity"] == result.fidelity
            assert entry["objective"] == result.objective
            assert entry["iterations"] == result.iterations

    def test_empty_targets_rejected(self):
        ansatz, _ = hea_ansatz(2, 1)
        with pytest.raises(ValueError, match="no targets"):
            compile_series([], ansatz, CompileConfig())
