"""Variational recompilation of target states into a shallow ansatz.

The objective is the squared vector distance || |target> - |s(params)> ||^2
= 2 - 2 Re<target|s(params)>, which is global-phase sensitive on purpose:
the compiled state must reproduce ancilla-entangled targets including the
relative phase between branches.  The objective is linear in the
circuit unitary, so one adjoint sweep of
:func:`gsee.simulator.overlap_gradient` gives every restart's objective
and its exact gradient: a forward pass prepares the states and a backward
pass carries them and the target back gate by gate (Jones & Gacon,
arXiv:2009.02823).  All restarts run as one batch per iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .simulator import CompiledCircuit, StateVector, derived_rng, overlap_gradient

__all__ = [
    "CompileConfig",
    "CompilationResult",
    "SeriesCompilation",
    "compile_state",
    "compile_series",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class CompileConfig:
    """Optimization settings; defaults follow the documented protocol."""

    max_iterations: int = 500
    learning_rate: float = 0.05
    restarts: int = 3
    seed: int = 0
    tolerance: float = 1e-12
    warm_start: bool = False
    initial_parameters: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("need at least one iteration and one restart")


@dataclass(frozen=True)
class CompilationResult:
    parameters: np.ndarray
    objective: float
    fidelity: float
    iterations: int
    seed: int
    restart: int


@dataclass(frozen=True)
class SeriesCompilation:
    """Per-target compilations over one shared ansatz."""

    n_qubits: int
    layers: int | None
    results: tuple[CompilationResult, ...]
    mean_fidelity: float = field(init=False)
    min_fidelity: float = field(init=False)
    max_fidelity: float = field(init=False)

    def __post_init__(self) -> None:
        fids = [r.fidelity for r in self.results]
        object.__setattr__(self, "mean_fidelity", float(np.mean(fids)))
        object.__setattr__(self, "min_fidelity", float(min(fids)))
        object.__setattr__(self, "max_fidelity", float(max(fids)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "layers": self.layers,
                "mean_fidelity": self.mean_fidelity,
                "min_fidelity": self.min_fidelity,
                "max_fidelity": self.max_fidelity,
                "results": [
                    {
                        "parameters": list(map(float, r.parameters)),
                        "objective": r.objective,
                        "fidelity": r.fidelity,
                        "iterations": r.iterations,
                        "seed": r.seed,
                        "restart": r.restart,
                    }
                    for r in self.results
                ],
            },
            indent=1,
        )


def compile_state(
    target: StateVector,
    ansatz: Circuit,
    config: CompileConfig = CompileConfig(),
) -> CompilationResult:
    """Minimizes the distance objective over the ansatz parameters.

    All restarts advance together in one batched Adam run (cosine-decayed
    learning rate).  The ansatz's gate kernels are compiled once per call
    and serve every sweep: each iteration is one adjoint sweep that
    yields every restart's objective and exact gradient, and plain
    forward sweeps score the last iterate and the winner.  The best
    parameters ever
    evaluated are returned, so the final objective never exceeds the
    initial one, and the winner is simulated once more so that the
    reported fidelity is |<target|U(parameters)|0>|^2 for exactly the
    returned parameters.

    Raises:
        ValueError: the objective became non-finite (diverged run).
    """
    if ansatz.n_qubits != target.n_qubits:
        raise ValueError("ansatz and target widths differ")
    if ansatz.n_params == 0:
        raise ValueError("ansatz has no parameters to optimize")
    n_params = ansatz.n_params
    n_restarts = config.restarts
    rng = derived_rng(config.seed)
    thetas = rng.uniform(-math.pi, math.pi, size=(n_restarts, n_params))
    if config.initial_parameters is not None:
        init = np.asarray(config.initial_parameters, dtype=float)
        if init.shape != (n_params,):
            raise ValueError(f"expected {n_params} initial parameters")
        thetas[0] = init
    target_conj = target.amplitudes.conj()
    compiled = CompiledCircuit(ansatz)
    zero = np.zeros(1 << ansatz.n_qubits, dtype=complex)
    zero[0] = 1.0

    best_obj = np.full(n_restarts, np.inf)
    best_thetas = thetas.copy()
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        overlaps, d_overlaps = overlap_gradient(
            compiled, target.amplitudes, thetas
        )
        objs = 2.0 - 2.0 * overlaps.real
        if not np.all(np.isfinite(objs)):
            raise ValueError("objective diverged to a non-finite value")
        improved = objs < best_obj
        best_obj = np.where(improved, objs, best_obj)
        best_thetas[improved] = thetas[improved]
        iterations = it
        if best_obj.min() <= config.tolerance:
            break
        grad = -2.0 * d_overlaps.real
        lr = config.learning_rate * 0.5 * (
            1.0 + math.cos(math.pi * (it - 1) / config.max_iterations)
        )
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad**2
        m_hat = m / (1.0 - _ADAM_BETA1**it)
        v_hat = v / (1.0 - _ADAM_BETA2**it)
        thetas = thetas - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    else:
        # final parameter vectors were updated but never scored
        objs = 2.0 - 2.0 * (compiled.simulate(zero, thetas) @ target_conj).real
        improved = objs < best_obj
        best_obj = np.where(improved, objs, best_obj)
        best_thetas[improved] = thetas[improved]

    winner = int(np.argmin(best_obj))
    params = best_thetas[winner]
    state = compiled.simulate(zero, params[None])[0]
    overlap = complex(target_conj @ state)
    return CompilationResult(
        parameters=params,
        objective=float(2.0 - 2.0 * overlap.real),
        fidelity=float(abs(overlap) ** 2),
        iterations=iterations,
        seed=config.seed,
        restart=winner,
    )


def compile_series(
    targets: Sequence[StateVector],
    ansatz: Circuit,
    config: CompileConfig = CompileConfig(),
    layers: int | None = None,
) -> SeriesCompilation:
    """Independent compile_state per target.

    Every step draws its restarts from the same seeded stream, so
    identical targets produce identical results.  With ``warm_start`` the
    previous step's solution seeds one restart of the next step (off by
    default: steps stay fully independent).
    """
    if not targets:
        raise ValueError("no targets to compile")
    results = []
    step_config = config
    for target in targets:
        result = compile_state(target, ansatz, step_config)
        results.append(result)
        if config.warm_start:
            step_config = replace(
                config, initial_parameters=tuple(result.parameters)
            )
    return SeriesCompilation(
        n_qubits=ansatz.n_qubits, layers=layers, results=tuple(results)
    )
