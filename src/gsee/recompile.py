"""Variational recompilation of target states into a shallow ansatz.

The objective is the squared vector distance || |target> - |s(params)> ||^2
= 2 - 2 Re<target|s(params)>, which is global-phase sensitive on purpose:
the compiled state must reproduce ancilla-entangled targets including the
relative phase between branches.  The objective is linear in the circuit
unitary, so one adjoint sweep of :func:`gsee.simulator.overlap_gradient`
gives every restart's objective and its exact gradient: a forward pass
prepares the states and a backward pass carries them and the target back
gate by gate (Jones & Gacon, arXiv:2009.02823).  All restarts of all time
points of a series run as one batch per iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .circuits import Circuit
from .simulator import CompiledCircuit, StateVector, derived_rng
from .simulator import group_overlaps, overlap_gradient

__all__ = [
    "CompileConfig",
    "CompilationResult",
    "SeriesCompilation",
    "compile_series",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# A sweep keeps about 10 live (rows, 2^n) complex arrays, so batches of targets
# stay within 2^16 amplitudes (1 MiB) per array: that spreads each gate's numpy
# overhead at small widths, while at 11-13 qubits batches of 2^18 ran slower
# per target than one target alone, as the gathers fell out of cache.
_GROUP_AMPLITUDES = 1 << 16


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and non-negative")


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


def _compile(
    compiled: CompiledCircuit, targets: Sequence[StateVector], config: CompileConfig
) -> list[CompilationResult]:
    """One Adam run over every target; row t * restarts + r is restart r of t."""
    ansatz = compiled.circuit
    if any(target.n_qubits != ansatz.n_qubits for target in targets):
        raise ValueError("ansatz and target widths differ")
    if ansatz.n_params == 0:
        raise ValueError("ansatz has no parameters to optimize")
    n_params = ansatz.n_params
    rng = derived_rng(config.seed)
    start = rng.uniform(-math.pi, math.pi, size=(config.restarts, n_params))
    if config.initial_parameters is not None:
        init = np.asarray(config.initial_parameters, dtype=float)
        if init.shape != (n_params,):
            raise ValueError(f"expected {n_params} initial parameters")
        start[0] = init
    amps = np.array([target.amplitudes for target in targets])
    zero = np.eye(1, amps.shape[1], dtype=complex)
    best_obj = np.full((len(amps), config.restarts), np.inf)
    best_thetas = np.tile(start, (len(amps), 1, 1))
    iterations = np.full(len(amps), config.max_iterations)

    # the targets still in the batch (until they reach tolerance), and their Adam state
    live = np.arange(len(amps))
    thetas = best_thetas.copy()
    m = np.zeros_like(thetas)
    v = np.zeros_like(thetas)
    for it in range(1, config.max_iterations + 1):
        overlaps, d_overlaps = overlap_gradient(
            compiled, amps[live], thetas.reshape(-1, n_params)
        )
        objs = (2.0 - 2.0 * overlaps.real).reshape(len(live), -1)
        if not np.all(np.isfinite(objs)):
            raise ValueError("objective diverged to a non-finite value")
        improved = objs < best_obj[live]
        best_obj[live] = np.where(improved, objs, best_obj[live])
        best_thetas[live] = np.where(improved[..., None], thetas, best_thetas[live])
        done = best_obj[live].min(axis=1) <= config.tolerance
        iterations[live[done]] = it
        live, thetas, m, v, d_overlaps = (
            a[~done] for a in (live, thetas, m, v, d_overlaps.reshape(thetas.shape))
        )
        if not live.size:
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
        phi = compiled.simulate(zero, thetas.reshape(-1, n_params))
        objs = 2.0 - 2.0 * group_overlaps(phi, amps[live]).real.reshape(len(live), -1)
        improved = objs < best_obj[live]
        best_obj[live] = np.where(improved, objs, best_obj[live])
        best_thetas[live] = np.where(improved[..., None], thetas, best_thetas[live])

    winners = np.argmin(best_obj, axis=1)
    params = best_thetas[np.arange(len(amps)), winners]
    states = compiled.simulate(zero, params)
    overlaps = [complex(a.conj() @ state) for a, state in zip(amps, states)]
    return [
        CompilationResult(
            parameters=params[t], objective=float(2.0 - 2.0 * overlap.real),
            fidelity=float(abs(overlap) ** 2), iterations=int(iterations[t]),
            seed=config.seed, restart=int(winners[t]),
        )
        for t, overlap in enumerate(overlaps)
    ]


def compile_series(
    targets: Sequence[StateVector],
    ansatz: Circuit,
    config: CompileConfig = CompileConfig(),
    layers: int | None = None,
) -> SeriesCompilation:
    """Minimizes the distance objective of every target over one shared ansatz.

    A target's restarts advance together in a batched Adam run (cosine-
    decayed learning rate) on kernels compiled once per call; each
    iteration is one adjoint sweep giving every restart's objective and
    exact gradient.  The best parameters ever evaluated are returned, so a
    target's final objective never exceeds its initial one, and the
    winner is simulated once more so that the reported fidelity is
    |<target|U(parameters)|0>|^2 for exactly the returned parameters.

    Every target draws its restarts from the same seeded stream, so
    identical targets produce identical results.  Consecutive targets run
    as one batch, as many as keep its amplitudes within
    :data:`_GROUP_AMPLITUDES`; every step is per row, so the results are bit
    for bit those of one call per target.  With ``warm_start`` (off by
    default) the previous target's solution seeds one restart of the next,
    so targets run one at a time.

    Raises:
        ValueError: no targets, or an objective became non-finite
            (diverged run).
    """
    if not targets:
        raise ValueError("no targets to compile")
    compiled = CompiledCircuit(ansatz)
    rows = config.restarts << ansatz.n_qubits
    per_group = 1 if config.warm_start else max(1, _GROUP_AMPLITUDES // rows)
    results: list[CompilationResult] = []
    step_config = config
    for first in range(0, len(targets), per_group):
        results += _compile(compiled, targets[first:first + per_group], step_config)
        if config.warm_start:
            init = tuple(results[-1].parameters)
            step_config = replace(config, initial_parameters=init)
    return SeriesCompilation(ansatz.n_qubits, layers, tuple(results))
