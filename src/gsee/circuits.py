"""Circuit intermediate representation and builders.

Gate kinds and conventions (half-angle throughout):

* ``h`` — Hadamard;
* ``rx``/``rz`` — exp(−i θ X/2), exp(−i θ Z/2);
* ``zzphase`` — exp(−i θ (Z⊗Z)/2) on a qubit pair;
* ``pauliexp`` — exp(−i θ P/2) for an arbitrary Pauli string P (the empty
  string gives the global phase e^{−iθ/2}).

Builders cover first-order Trotter steps ordered largest-norm-fragment
first and the hardware-efficient recompilation ansatz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import PauliString, PauliSum

__all__ = [
    "Gate",
    "Circuit",
    "AnsatzSpec",
    "trotter_step",
    "two_qubit_depth",
    "hea_ansatz",
]

_KINDS_1Q = {"h", "rx", "rz"}
_KINDS_PARAMETRIC = {"rx", "rz", "zzphase", "pauliexp"}
_KINDS = _KINDS_1Q | {"zzphase", "pauliexp"}


@dataclass(frozen=True)
class Gate:
    """One gate: kind, acted qubits, and a fixed angle or parameter id.

    For ``pauliexp`` the rotation axis is carried in ``pauli`` (already
    expressed on absolute qubit indices).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    param: int | None = None
    pauli: PauliString | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in gate {self.kind}{self.qubits}")
        if self.kind in _KINDS_1Q and len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind == "zzphase" and len(self.qubits) != 2:
            raise ValueError("zzphase acts on exactly two qubits")
        if self.kind == "pauliexp":
            if self.pauli is None:
                raise ValueError("pauliexp requires a Pauli string")
            if tuple(sorted(self.qubits)) != tuple(self.pauli.support):
                raise ValueError("gate qubits must equal the string support")
        elif self.pauli is not None:
            raise ValueError(f"{self.kind} carries no Pauli string")
        if self.kind in _KINDS_PARAMETRIC:
            if (self.angle is None) == (self.param is None):
                raise ValueError(f"{self.kind} needs an angle or a parameter id")
        elif self.angle is not None or self.param is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def generator(self) -> PauliString | None:
        """The string P of a rotation exp(-i angle P/2); None for h."""
        if self.kind in ("rx", "rz"):
            axis = "X" if self.kind == "rx" else "Z"
            return PauliString.from_support({self.qubits[0]: axis})
        if self.kind == "zzphase":
            return PauliString.from_support({q: "Z" for q in self.qubits})
        return self.pauli


class Circuit:
    """An ordered gate list over a fixed register.

    Symbolic parameters, when present, must form the contiguous id space
    ``0..n_params-1``.
    """

    __slots__ = ("n_qubits", "gates", "n_params")

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()) -> None:
        gates = tuple(gates)
        params = set()
        for g in gates:
            if any(q < 0 or q >= n_qubits for q in g.qubits):
                raise ValueError(
                    f"gate {g.kind}{g.qubits} outside register of width {n_qubits}"
                )
            if g.param is not None:
                params.add(g.param)
        if params and params != set(range(len(params))):
            raise ValueError("parameter ids must be contiguous from 0")
        self.n_qubits = n_qubits
        self.gates = gates
        self.n_params = len(params)

    def __len__(self) -> int:
        return len(self.gates)

    def bind(self, values: Sequence[float]) -> "Circuit":
        """Substitutes numeric angles for all symbolic parameters."""
        if len(values) != self.n_params:
            raise ValueError(
                f"expected {self.n_params} parameter values, got {len(values)}"
            )
        bound = [
            g
            if g.param is None
            else Gate(g.kind, g.qubits, angle=float(values[g.param]), pauli=g.pauli)
            for g in self.gates
        ]
        return Circuit(self.n_qubits, bound)


@dataclass(frozen=True)
class AnsatzSpec:
    """Structural accounting for the hardware-efficient ansatz."""

    n_qubits: int
    layers: int
    n_params: int
    two_qubit_count: int

    def __post_init__(self) -> None:
        expected_params = self.layers * (4 * self.n_qubits - 1) + 3 * self.n_qubits
        expected_2q = self.layers * (self.n_qubits - 1)
        if self.n_params != expected_params or self.two_qubit_count != expected_2q:
            raise ValueError("ansatz accounting violates the layer formulas")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _exp_gate(string: PauliString, angle: float) -> Gate:
    return Gate("pauliexp", tuple(string.support), angle=angle, pauli=string)


def trotter_step(h: PauliSum, tau: float) -> Circuit:
    """One first-order Trotter step for exp(−i τ H).

    The terms of ``h`` are partitioned into fully commuting fragments;
    fragments are applied largest coefficient-1-norm first.  Each term
    a·P becomes PauliExp(P, 2τa); an identity term becomes the matching
    global phase so the circuit unitary equals the exact exponential
    whenever all terms commute.

    Raises:
        ValueError: non-Hermitian input.
    """
    if not h.is_hermitian():
        raise ValueError("Trotter step requires a Hermitian sum")
    fragments = h.group_commuting("full")
    # stable sort: equal norms keep the coloring order
    ordered = sorted(
        fragments,
        key=lambda frag: -sum(abs(c) for _, c in frag),
    )
    gates = []
    for fragment in ordered:
        for string, coeff in fragment:
            gates.append(_exp_gate(string, 2.0 * tau * coeff.real))
    return Circuit(max(h.n_qubits, 1), gates)


def _two_qubit_blocks(gate: Gate) -> list[tuple[int, int]]:
    # Cost-model convention: a gate on k >= 3 qubits is charged as its
    # nearest-neighbour entangling ladder (down and back up the sorted
    # qubit chain); one- and two-qubit gates cost 0 and 1 blocks.
    qs = sorted(set(gate.qubits))
    if len(qs) < 2:
        return []
    if len(qs) == 2:
        return [(qs[0], qs[1])]
    down = list(zip(qs[:-1], qs[1:]))
    return down + down[::-1]


def two_qubit_depth(circuit: Circuit) -> int:
    """Longest chain of two-qubit blocks sharing qubits (greedy layering).

    Single-qubit gates cost nothing; wider gates are decomposed by the
    documented ladder convention of this cost model.
    """
    depth: dict[int, int] = {}
    for gate in circuit.gates:
        for a, b in _two_qubit_blocks(gate):
            layer = max(depth.get(a, 0), depth.get(b, 0)) + 1
            depth[a] = depth[b] = layer
    return max(depth.values(), default=0)


def hea_ansatz(n_qubits: int, layers: int) -> tuple[Circuit, AnsatzSpec]:
    """Hardware-efficient ansatz over an ancilla (qubit 0) plus system.

    Structure: Hadamard on the ancilla; then ``layers`` repetitions of a
    per-qubit Rx·Rz·Rx rotation block followed by a cascade of
    ZZPhase(ancilla, q) entanglers; then one final rotation block.  All
    angles are symbolic parameters, ids assigned in emission order.

    Raises:
        ValueError: fewer than 2 qubits or fewer than 1 layer.
    """
    if n_qubits < 2 or layers < 1:
        raise ValueError("ansatz needs n_qubits >= 2 and layers >= 1")
    gates = [Gate("h", (0,))]
    pid = 0

    def rotation_block() -> None:
        nonlocal pid
        for q in range(n_qubits):
            for kind in ("rx", "rz", "rx"):
                gates.append(Gate(kind, (q,), param=pid))
                pid += 1

    for _ in range(layers):
        rotation_block()
        for q in range(1, n_qubits):
            gates.append(Gate("zzphase", (0, q), param=pid))
            pid += 1
    rotation_block()
    circuit = Circuit(n_qubits, gates)
    spec = AnsatzSpec(
        n_qubits=n_qubits,
        layers=layers,
        n_params=pid,
        two_qubit_count=layers * (n_qubits - 1),
    )
    return circuit, spec
