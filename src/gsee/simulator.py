"""Exact dense state-vector simulator with seeded shot sampling.

Qubit q is bit q of the basis index (little-endian).  A circuit's gates
are compiled once (:class:`CompiledCircuit`), a Hadamard into a reshape
and a rotation into index and phase arrays, and act on batches of
states at once, so parameter sweeps cost one vectorized pass and
:func:`overlap_gradient` gets an overlap and its exact gradient from
one forward and one backward sweep.  Randomness
always flows through :func:`derived_rng`, a counter-based Philox
generator keyed by (seed, stream); repeated runs with the same key
reproduce shot records bit for bit.  Pauli-string actions come from
:mod:`gsee.pauli`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .pauli import PauliSum

__all__ = [
    "AMPLITUDE_CAP",
    "StateVector",
    "ShotRecord",
    "derived_rng",
    "apply_circuit",
    "CompiledCircuit",
    "simulate_batch",
    "group_overlaps",
    "overlap_gradient",
    "expectation",
    "sample_z",
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
        self.check_width(n_qubits)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError(
                f"expected {1 << n_qubits} amplitudes, got {amplitudes.shape}"
            )
        norm = float(np.linalg.norm(amplitudes))
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails too
            raise ValueError(f"state norm {norm} is not 1")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @staticmethod
    def check_width(n_qubits: int) -> None:
        """Raises unless ``n_qubits`` is in 1..AMPLITUDE_CAP; call before allocating."""
        if n_qubits < 1 or n_qubits > AMPLITUDE_CAP:
            raise ValueError(f"register width must be in 1..{AMPLITUDE_CAP}")

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        cls.check_width(n_qubits)
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} outside register")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)


# ----------------------------------------------------------------------
# gate kernels: compiled once per circuit, applied to (batch, 2^n) arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True, eq=False)
class _Kernel:
    """One gate's kernel for a fixed register width.

    ``h`` mixes the amplitudes with bit ``qubit`` clear and set, as the
    two halves of a view.  Every other kind is a rotation exp(-i angle
    P/2): P maps amplitude ``src[i]`` (``src`` is None when P is
    diagonal) times ``d[i]`` to index ``i`` (:meth:`PauliString.action`);
    ``col`` is the gate's row in the cos and i sin tables.
    """

    kind: str
    param: int | None = None
    qubit: int | None = None
    src: np.ndarray | None = None
    d: np.ndarray | None = None
    col: int | None = None

    def hadamard(self, amps: np.ndarray) -> None:
        if not amps.flags.c_contiguous:  # a reshape would copy and lose the write
            raise ValueError("the Hadamard kernel needs C-contiguous amplitudes")
        pairs = amps.reshape(*amps.shape[:-1], -1, 2, 1 << self.qubit)  # axis -2: bit q
        a0, a1 = pairs[..., 0, :], pairs[..., 1, :]
        a0[...], a1[...] = (a0 + a1) * _SQRT_HALF, (a0 - a1) * _SQRT_HALF

    def pauli(self, amps: np.ndarray) -> np.ndarray:
        """P applied to amplitudes along their last axis, as a new array."""
        if self.src is None:
            return amps * self.d
        moved = amps[..., self.src]
        moved *= self.d
        return moved


class CompiledCircuit:
    """A circuit's gate kernels, built once and reused by every sweep.

    :meth:`simulate` and :func:`overlap_gradient` run them;
    :func:`simulate_batch` compiles a circuit for one call.  ``gates``, a
    dict that circuits on one register may share, keeps each rotation's
    ``(src, d)``, so each is built once.
    """

    __slots__ = ("circuit", "_kernels", "_fixed_angles", "_param_cols",
                 "_param_ids")

    def __init__(self, circuit: Circuit, gates: dict | None = None) -> None:
        gates = {} if gates is None else gates
        dim = 1 << circuit.n_qubits
        kernels, angles, params = [], [], []
        for gate in circuit.gates:
            if gate.kind == "h":
                kernels.append(_Kernel("h", qubit=gate.qubits[0]))
            else:
                key = (gate.kind, gate.qubits, gate.pauli)
                if key not in gates:
                    string = gate.generator
                    src, d = string.action(dim)
                    gates[key] = src if string.x_mask else None, d
                src, d = gates[key]
                kernels.append(_Kernel(
                    gate.kind, param=gate.param, src=src, d=d, col=len(angles)
                ))
                angles.append(0.0 if gate.angle is None else gate.angle)
                params.append(gate.param)
        symbolic = [col for col, p in enumerate(params) if p is not None]
        self.circuit = circuit
        self._kernels = tuple(kernels)
        self._fixed_angles = np.array(angles, dtype=float)
        self._param_cols = np.array(symbolic, dtype=np.intp)
        self._param_ids = np.array([params[c] for c in symbolic], dtype=np.intp)

    def _trig(self, params: np.ndarray | None, batch: int):
        """cos(angle/2) and i sin(angle/2) of every rotation.

        Row ``col`` of each table is a ``(batch, 1)`` column that
        broadcasts against a ``(batch, 2^n)`` amplitude array.
        """
        angles = np.repeat(self._fixed_angles[:, None], batch, axis=1)
        if params is not None:
            angles[self._param_cols] = params.T[self._param_ids]
        half = 0.5 * angles[..., None]
        return np.cos(half), 1j * np.sin(half)

    def _forward(self, amps: np.ndarray, cos: np.ndarray, isin: np.ndarray):
        """Applies every gate in order; ``amps`` may be overwritten.

        A rotation computes ``cos * a - i sin * (a[src] * d)``, the
        expression of the dense Pauli action, in place where it can.
        """
        for k in self._kernels:
            if k.kind == "h":
                k.hadamard(amps)
            else:
                moved = k.pauli(amps)
                moved *= isin[k.col]
                amps = cos[k.col] * amps
                amps -= moved
        return amps

    def simulate(
        self, initial: np.ndarray, params: np.ndarray | None = None
    ) -> np.ndarray:
        """Runs the circuit over a batch of parameter vectors and/or states.

        Args:
            initial: amplitudes of shape ``(2^n,)`` or ``(batch, 2^n)``.
            params: parameter matrix of shape ``(batch, n_params)``;
                required exactly when the circuit has symbolic parameters.

        Returns:
            Output amplitudes of shape ``(batch, 2^n)``.
        """
        initial = np.asarray(initial, dtype=complex)
        if initial.ndim == 1:
            initial = initial[None, :]
        if initial.shape[-1] != 1 << self.circuit.n_qubits:
            raise ValueError("state width does not match the circuit register")
        params = _check_params(self.circuit, params)
        if params is not None:
            if initial.shape[0] == 1:
                initial = np.broadcast_to(
                    initial, (params.shape[0], initial.shape[1])
                )
            elif initial.shape[0] != params.shape[0]:
                raise ValueError("state and parameter batch sizes differ")
        cos, isin = self._trig(params, initial.shape[0])
        return self._forward(initial.copy(), cos, isin)


def _check_params(circuit: Circuit, params) -> np.ndarray | None:
    if (params is None) != (circuit.n_params == 0):
        raise ValueError("parameter matrix required iff the circuit is symbolic")
    if params is None:
        return None
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ValueError(f"expected parameter shape (batch, {circuit.n_params})")
    return params


def simulate_batch(
    circuit: Circuit, initial: np.ndarray, params: np.ndarray | None = None,
    gates: dict | None = None,
) -> np.ndarray:
    """Compiles ``circuit`` and runs it once (:meth:`CompiledCircuit.simulate`)."""
    return CompiledCircuit(circuit, gates).simulate(initial, params)


def group_overlaps(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``<targets[t]|row>`` for rows in ``len(targets)`` equal consecutive groups.

    One matrix-vector product per group, as a batch of that group alone
    takes it: a per-row dot differs in the last bit, and an optimizer
    keeps its parameters by these overlaps.
    """
    groups = states.reshape(len(targets), -1, states.shape[-1])
    return np.concatenate([g @ t.conj() for g, t in zip(groups, targets)])


def overlap_gradient(
    compiled: CompiledCircuit, target: np.ndarray, params: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``<target|U(params)|0>`` and its gradient, by one adjoint sweep.

    The forward sweep prepares phi = U|0>.  The backward sweep carries phi
    and lambda = target back together, undoing one gate at a time; at a
    rotation exp(-i angle P/2) the derivative of the overlap is
    ``<lambda|(-i/2) P|phi>``, summed over every gate that uses the
    parameter (Jones & Gacon, arXiv:2009.02823).  Each of T targets owns a
    consecutive group of batch / T rows.  Every step is elementwise, a
    gather or a per-row ``np.vecdot``, and :func:`group_overlaps` gives the
    overlaps, so a group's results are bit for bit its target's alone.

    Args:
        target: amplitudes of shape ``(2^n,)`` or ``(T, 2^n)``.
        params: parameter matrix of shape ``(batch, n_params)``.

    Returns:
        ``(overlaps, gradient)`` of shapes ``(batch,)`` and
        ``(batch, n_params)``, both complex.
    """
    circuit = compiled.circuit
    targets = np.atleast_2d(np.asarray(target, dtype=complex))
    if targets.ndim != 2 or targets.shape[1] != 1 << circuit.n_qubits:
        raise ValueError("target width does not match the circuit register")
    params = _check_params(circuit, params)
    if params is None:
        raise ValueError("overlap_gradient needs a symbolic circuit")
    batch = params.shape[0]
    if not len(targets) or batch % len(targets):
        raise ValueError("every target needs the same number of parameter rows")
    cos, isin = compiled._trig(params, batch)
    amps = np.zeros((batch, targets.shape[1]), dtype=complex)
    amps[:, 0] = 1.0
    phi = compiled._forward(amps, cos, isin)
    overlaps = group_overlaps(phi, targets)

    # stack[0] holds phi and stack[1] lambda, which share each gate's
    # (batch, 1) trig rows; the inverse of a rotation is the same rotation
    # with i sin negated
    stack = np.stack([phi, np.repeat(targets, batch // len(targets), axis=0)])
    # <lambda|P|phi> per rotation; the parameters' sums are formed after
    per_gate = np.zeros((len(cos), batch), dtype=complex)
    for k in reversed(compiled._kernels):
        if k.kind == "h":
            k.hadamard(stack)
            continue
        moved = k.pauli(stack)
        if k.param is not None:
            np.vecdot(stack[1], moved[0], out=per_gate[k.col])
        moved *= isin[k.col]
        stack = cos[k.col] * stack
        stack += moved
    grad = np.zeros((batch, circuit.n_params), dtype=complex)
    # unbuffered +=: one parameter id may drive several gates
    np.add.at(grad.T, compiled._param_ids, per_gate[compiled._param_cols])
    return overlaps, -0.5j * grad


def apply_circuit(
    state: StateVector, circuit: Circuit, gates: dict | None = None
) -> StateVector:
    """Applies a fully bound circuit to one state; ``gates`` as in CompiledCircuit."""
    if circuit.n_params:
        raise ValueError("circuit has unbound parameters")
    out = simulate_batch(circuit, state.amplitudes, gates=gates)
    return StateVector(state.n_qubits, out[0])


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
    """A Z-basis acquisition as a histogram of measured basis indices.

    ``outcomes`` holds each observed index once, in ascending order (bit
    q of an index is the qubit-q result), and ``counts[k]`` is how many
    of the ``spc`` shots gave ``outcomes[k]``.
    """

    n_qubits: int
    spc: int
    outcomes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.outcomes.shape != self.counts.shape or self.counts.sum() != self.spc:
            raise ValueError("outcome counts disagree with spc")


def sample_z(
    state: StateVector, spc: int, seed: int, stream: tuple[int, ...] = ()
) -> ShotRecord:
    """Draws ``spc`` Z-basis shots from the exact output distribution.

    The draws come from :func:`derived_rng` keyed by ``(seed, stream)``,
    so a given key always reproduces the same record: that of
    ``rng.choice(2^n, spc, p=probs)``, whose shot is the number of cdf
    entries at or below its uniform.  Index b's count is that of the
    uniforms in ``[cdf[b-1], cdf[b])``, read off the sorted uniforms; the
    cdf is taken over the indices of nonzero probability only.

    Raises:
        ValueError: ``spc < 1``, or probabilities that do not sum to a
            finite positive number.
    """
    if spc < 1:
        raise ValueError("spc must be at least 1")
    rng = derived_rng(seed, *stream)
    probs = np.abs(state.amplitudes) ** 2
    total = probs.sum()
    if not 0.0 < total < np.inf:  # NaN fails too
        raise ValueError(
            f"state probabilities sum to {total}, not a finite positive number"
        )
    # a zero probability adds nothing to the cdf and draws no shot, so the
    # search runs over the support alone
    support = np.flatnonzero(probs)
    cdf = (probs[support] / total).cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(spc)
    uniforms.sort()
    counts = np.diff(np.searchsorted(uniforms, cdf), prepend=0)
    drawn = counts > 0
    return ShotRecord(state.n_qubits, spc, support[drawn], counts[drawn])
