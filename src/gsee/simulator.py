"""Exact dense state-vector simulator with seeded shot sampling.

Qubit q is bit q of the basis index (little-endian).  All gate kernels
operate on batches of states at once so that parameter sweeps cost one
vectorized pass.  Randomness always flows through :func:`derived_rng`,
a counter-based Philox generator keyed by (seed, stream); repeated runs
with the same key reproduce shot records bit for bit.  Pauli-string
actions and Z-parity signs come from :mod:`gsee.pauli`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .pauli import PauliString, PauliSum, z_signs

__all__ = [
    "AMPLITUDE_CAP",
    "StateVector",
    "ShotRecord",
    "derived_rng",
    "apply_circuit",
    "simulate_batch",
    "evolve_exact",
    "expectation",
    "sample_z",
    "estimate_pauli_z",
]

AMPLITUDE_CAP = 20

_SQRT_HALF = np.sqrt(0.5)


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for an independent, reproducible stream.

    The stream key isolates sub-tasks (circuit index, resample index,
    worker id) so results do not depend on execution order.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream))
    )


class StateVector:
    """A normalized state over ``n_qubits`` little-endian qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray) -> None:
        if n_qubits < 1 or n_qubits > AMPLITUDE_CAP:
            raise ValueError(f"register width must be in 1..{AMPLITUDE_CAP}")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError(
                f"expected {1 << n_qubits} amplitudes, got {amplitudes.shape}"
            )
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state norm {norm} is not 1")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def zero_state(cls, n_qubits: int) -> "StateVector":
        return cls.basis_state(n_qubits, 0)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} outside register")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product ``<self|other>``."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("register widths differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2


# ----------------------------------------------------------------------
# gate kernels: all operate on (batch, 2^n) arrays in place
# ----------------------------------------------------------------------
def _col(angle, batch: int) -> np.ndarray:
    """Half-angle coefficients broadcast against a (batch, dim) array."""
    arr = np.asarray(angle, dtype=float)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (batch,))
    return arr[:, None]


def _apply_gate(amps: np.ndarray, gate: Gate, angle) -> np.ndarray:
    dim = amps.shape[-1]
    idx = np.arange(dim)
    if gate.kind == "h":
        q = gate.qubits[0]
        lo = idx[(idx >> q) & 1 == 0]
        hi = lo | (1 << q)
        a0 = amps[..., lo]
        a1 = amps[..., hi]
        amps[..., lo] = (a0 + a1) * _SQRT_HALF
        amps[..., hi] = (a0 - a1) * _SQRT_HALF
        return amps
    if gate.kind == "sdg":
        q = gate.qubits[0]
        amps[..., idx[(idx >> q) & 1 == 1]] *= -1j
        return amps
    # remaining kinds are all exp(-i angle P / 2)
    if gate.kind == "rx":
        string = PauliString.from_support({gate.qubits[0]: "X"})
    elif gate.kind == "rz":
        string = PauliString.from_support({gate.qubits[0]: "Z"})
    elif gate.kind == "zzphase":
        string = PauliString.from_support({q: "Z" for q in gate.qubits})
    else:
        string = gate.pauli
    half = 0.5 * _col(angle, amps.shape[0])
    evolved = np.cos(half) * amps - 1j * np.sin(half) * string.act(amps)
    if gate.kind == "cpauliexp":
        control = (idx >> gate.qubits[0]) & 1 == 1
        return np.where(control, evolved, amps)
    return evolved


def simulate_batch(
    circuit: Circuit, initial: np.ndarray, params: np.ndarray | None = None
) -> np.ndarray:
    """Runs one circuit over a batch of parameter vectors and/or states.

    Args:
        initial: amplitudes of shape ``(2^n,)`` or ``(batch, 2^n)``.
        params: parameter matrix of shape ``(batch, n_params)``; required
            exactly when the circuit has symbolic parameters.

    Returns:
        Output amplitudes of shape ``(batch, 2^n)``.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.ndim == 1:
        initial = initial[None, :]
    if initial.shape[-1] != 1 << circuit.n_qubits:
        raise ValueError("state width does not match the circuit register")
    if (params is None) != (circuit.n_params == 0):
        raise ValueError("parameter matrix required iff the circuit is symbolic")
    if params is not None:
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != circuit.n_params:
            raise ValueError(
                f"expected parameter shape (batch, {circuit.n_params})"
            )
        if initial.shape[0] == 1:
            initial = np.broadcast_to(
                initial, (params.shape[0], initial.shape[1])
            )
        elif initial.shape[0] != params.shape[0]:
            raise ValueError("state and parameter batch sizes differ")
    amps = initial.copy()
    for gate in circuit.gates:
        angle = gate.angle if gate.param is None else params[:, gate.param]
        amps = _apply_gate(amps, gate, angle)
    return amps


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Applies a fully bound circuit to one state."""
    if circuit.n_params:
        raise ValueError("circuit has unbound parameters")
    out = simulate_batch(circuit, state.amplitudes)
    return StateVector(state.n_qubits, out[0])


def evolve_exact(state: StateVector, h: PauliSum, t: float) -> StateVector:
    """exp(-i t H)|state> through the cached eigendecomposition of H."""
    if h.n_qubits != state.n_qubits:
        raise ValueError("Hamiltonian and state widths differ")
    vals, vecs = h.eig()
    # V^H a computed as conj(V^T conj(a)): no conjugate copy of V
    coords = (vecs.T @ state.amplitudes.conj()).conj()
    return StateVector(state.n_qubits, vecs @ (np.exp(-1j * t * vals) * coords))


def expectation(state: StateVector, observable: PauliSum) -> complex:
    """``<state|observable|state>`` summed exactly over the terms."""
    if observable.n_qubits != state.n_qubits:
        raise ValueError("observable and state widths differ")
    amps = state.amplitudes
    total = 0.0 + 0.0j
    for string, coeff in observable.terms():
        total += coeff * np.vdot(amps, string.act(amps))
    return complex(total)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShotRecord:
    """Measured basis indices from one Z-basis acquisition.

    ``outcomes[k]`` is the integer whose bit q is the qubit-q result of
    shot k.  Bitstring text renders qubit 0 leftmost.
    """

    n_qubits: int
    spc: int
    seed: int
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        if self.outcomes.shape != (self.spc,):
            raise ValueError("outcome count disagrees with spc")

    def bitstrings(self) -> list[str]:
        return [
            "".join("1" if (int(o) >> q) & 1 else "0" for q in range(self.n_qubits))
            for o in self.outcomes
        ]

    def counts(self) -> dict[int, int]:
        """Empirical distribution over observed basis indices."""
        values, freq = np.unique(self.outcomes, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, freq)}

    def to_csv(self) -> str:
        header = f"# seed={self.seed} spc={self.spc} n_qubits={self.n_qubits}"
        return "\n".join([header, *self.bitstrings()]) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ShotRecord":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        match = re.fullmatch(
            r"#\s*seed=(-?\d+)\s+spc=(\d+)\s+n_qubits=(\d+)", lines[0].strip()
        )
        if match is None:
            raise ValueError("missing shot-record header line")
        seed, spc, n_qubits = (int(g) for g in match.groups())
        rows = lines[1:]
        if len(rows) != spc:
            raise ValueError(f"expected {spc} shot rows, found {len(rows)}")
        outcomes = np.empty(spc, dtype=np.int64)
        for k, row in enumerate(rows):
            bits = row.strip()
            if len(bits) != n_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad shot row {bits!r}")
            outcomes[k] = sum(1 << q for q, b in enumerate(bits) if b == "1")
        return cls(n_qubits, spc, seed, outcomes)


def sample_z(
    state: StateVector,
    spc: int,
    seed: int,
    stream: tuple[int, ...] = (),
    depolarize: float = 0.0,
) -> ShotRecord:
    """Draws ``spc`` Z-basis shots from the exact output distribution.

    With ``depolarize = p`` each shot is replaced, with probability p, by
    a uniformly random basis index; the expectation of any nontrivial
    Z-string estimator then shrinks by the factor (1 - p).  The draw
    sequence is fixed (outcomes, replacement mask, replacements) so a
    given (seed, stream, depolarize) always reproduces the same record.
    """
    if spc < 1:
        raise ValueError("spc must be at least 1")
    if not 0.0 <= depolarize <= 1.0:
        raise ValueError("depolarize must lie in [0, 1]")
    rng = derived_rng(seed, *stream)
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    outcomes = rng.choice(len(probs), size=spc, p=probs).astype(np.int64)
    if depolarize > 0.0:
        replace = rng.random(spc) < depolarize
        uniform = rng.integers(0, len(probs), size=spc)
        outcomes = np.where(replace, uniform, outcomes)
    return ShotRecord(state.n_qubits, spc, seed, outcomes)


def estimate_pauli_z(record: ShotRecord, z: PauliString | int) -> float:
    """Sample mean of the Z-string observable over a shot record.

    Args:
        z: a Z-only Pauli string, or the integer mask of its support.
    """
    if isinstance(z, PauliString):
        if z.x_mask:
            raise ValueError("only Z-type strings are estimable from Z shots")
        mask = z.z_mask
    else:
        mask = int(z)
    if mask >> record.n_qubits:
        raise ValueError("mask outside the recorded register")
    return float(np.mean(z_signs(record.outcomes, mask)))
