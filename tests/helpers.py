"""Shared dense oracles for the test suite.

Everything here is built independently of the package internals: strings
become matrices through explicit Kronecker products of 2x2 constants, so
package results can be checked against straight linear algebra.
"""

from __future__ import annotations

import numpy as np

from gsee.circuits import Circuit, Gate
from gsee.pauli import PauliString, PauliSum
from gsee.simulator import simulate_batch

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
AXIS_MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense_string(string: PauliString, n_qubits: int) -> np.ndarray:
    """Kronecker-product matrix of a string, little-endian (qubit 0 = LSB)."""
    support = string.support
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n_qubits)):
        out = np.kron(out, AXIS_MATS[support.get(q, "I")])
    return out


def dense_sum(a: PauliSum) -> np.ndarray:
    dim = 1 << a.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in a.terms():
        out += coeff * dense_string(string, a.n_qubits)
    return out


def random_string(rng: np.random.Generator, n_qubits: int) -> PauliString:
    support = {}
    for q in range(n_qubits):
        axis = rng.choice(["I", "X", "Y", "Z"])
        if axis != "I":
            support[q] = str(axis)
    return PauliString.from_support(support)


def random_sum(
    rng: np.random.Generator,
    n_qubits: int,
    n_terms: int,
    hermitian: bool = True,
) -> PauliSum:
    terms = {}
    while len(terms) < n_terms:
        s = random_string(rng, n_qubits)
        c = rng.normal() if hermitian else rng.normal() + 1j * rng.normal()
        terms[s] = c
    return PauliSum(n_qubits, terms)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def phasor_objective(
    values: np.ndarray, tau: float, thetas: np.ndarray, block: int = 1024
) -> np.ndarray:
    """f(theta) = |sum_n Z_n e^{i n tau theta}|^2 through the phasor matrix.

    The (thetas x samples) matrix is built ``block`` thetas at a time, so
    fine grids and long series stay within a few tens of MB.
    """
    steps = np.arange(len(values)) * tau
    out = np.empty(len(thetas))
    for start in range(0, len(thetas), block):
        phasors = np.exp(1j * np.outer(thetas[start:start + block], steps))
        out[start:start + block] = np.abs(phasors @ values) ** 2
    return out


def embed_1q(mat: np.ndarray, q: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator placed at qubit ``q``, little-endian."""
    out = np.array([[1.0 + 0j]])
    for k in reversed(range(n_qubits)):
        out = np.kron(out, mat if k == q else I2)
    return out


def _rotation_string(gate) -> PauliString:
    axis = {"rx": "X", "rz": "Z"}
    if gate.kind in axis:
        return PauliString.from_support({gate.qubits[0]: axis[gate.kind]})
    if gate.kind == "zzphase":
        return PauliString.from_support({q: "Z" for q in gate.qubits})
    return gate.pauli


def gate_matrix(gate, n_qubits: int) -> np.ndarray:
    """Dense unitary of one gate, built from first principles.

    Exponential kinds go through ``scipy.linalg.expm`` so the simulator
    kernels are checked against an unrelated code path.
    """
    from scipy.linalg import expm

    kind = gate.kind
    if kind == "h":
        return embed_1q((X2 + Z2) / np.sqrt(2.0), gate.qubits[0], n_qubits)
    return expm(-0.5j * gate.angle * dense_string(_rotation_string(gate), n_qubits))


def circuit_unitary(circuit) -> np.ndarray:
    """Product of dense gate matrices; requires a fully bound circuit."""
    dim = 1 << circuit.n_qubits
    out = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        out = gate_matrix(gate, circuit.n_qubits) @ out
    return out


def reference_simulate(circuit, initial: np.ndarray) -> np.ndarray:
    """A bound circuit on (batch, 2^n) amplitudes, one gate at a time.

    Every gate rebuilds its index arrays and applies the dense Pauli
    action through ``PauliString.act``.  The simulator's compiled kernels
    must reproduce this bit for bit, so their outputs, and every artifact
    computed from them, do not depend on the compilation.
    """
    amps = np.array(initial, dtype=complex)
    idx = np.arange(amps.shape[-1])
    for gate in circuit.gates:
        bit = (idx >> gate.qubits[0]) & 1 == 1 if gate.qubits else None
        if gate.kind == "h":
            a0 = amps[..., idx[~bit]]
            a1 = amps[..., idx[bit]]
            amps[..., idx[~bit]] = (a0 + a1) * np.sqrt(0.5)
            amps[..., idx[bit]] = (a0 - a1) * np.sqrt(0.5)
            continue
        half = 0.5 * np.broadcast_to(float(gate.angle), (amps.shape[0],))[:, None]
        string = _rotation_string(gate)
        amps = np.cos(half) * amps - 1j * np.sin(half) * string.act(amps)
    return amps


def shift_gradient(circuit, target: np.ndarray, params: np.ndarray):
    """``<target|U(params)|0>`` and its gradient by the parameter-shift rule.

    The overlap is linear in each gate's cos/sin of half its angle, so
    shifting one gate's angle by +-pi gives that gate's derivative
    exactly as (f(+pi) - f(-pi)) / 4.  Every symbolic gate is shifted on
    its own, and the derivatives of the gates that share a parameter id
    are summed.
    """
    symbolic = [g for g in circuit.gates if g.param is not None]
    ids = np.array([g.param for g in symbolic], dtype=int)
    gates, k = [], 0
    for g in circuit.gates:
        if g.param is not None:
            g = Gate(g.kind, g.qubits, param=k, pauli=g.pauli)
            k += 1
        gates.append(g)
    per_gate = Circuit(circuit.n_qubits, gates)
    base = np.asarray(params, dtype=float)[:, ids]
    batch, n = base.shape
    shifted = np.repeat(base[:, None, :], 2 * n + 1, axis=1)
    shifted[:, 1 : n + 1][:, range(n), range(n)] += np.pi
    shifted[:, n + 1 :][:, range(n), range(n)] -= np.pi
    zero = np.zeros(1 << circuit.n_qubits, dtype=complex)
    zero[0] = 1.0
    states = simulate_batch(per_gate, zero, shifted.reshape(-1, n))
    values = (states @ np.conj(target)).reshape(batch, 2 * n + 1)
    gate_grad = (values[:, 1 : n + 1] - values[:, n + 1 :]) / 4.0
    grad = np.zeros((batch, circuit.n_params), dtype=complex)
    np.add.at(grad.T, ids, gate_grad.T)
    return values[:, 0], grad


def conjugate_reference(x: int, z: int, ops: list[tuple]) -> tuple[int, int, int]:
    """``U P U^dag = sign · P(x', z')`` for one string, one generator at a time.

    ``ops`` are ``("h", q)``, ``("s", q)`` and ``("cz", a, b)``, the
    generators measurement planning emits.  Returns ``(x', z', sign)``.
    """
    sign = 1
    for op in ops:
        if op[0] == "h":
            q = 1 << op[1]
            if x & q and z & q:
                sign = -sign
            x, z = (x & ~q) | (z & q), (z & ~q) | (x & q)
        elif op[0] == "s":
            q = 1 << op[1]
            if x & q and z & q:
                sign = -sign
            z ^= x & q
        else:
            a, b = 1 << op[1], 1 << op[2]
            if x & a and x & b and bool(z & a) != bool(z & b):
                sign = -sign
            if x & a:
                z ^= b
            if x & b:
                z ^= a
    return x, z, sign


def greedy_coloring_reference(a: PauliSum, mode: str) -> tuple:
    """Pairwise greedy largest-first coloring, the oracle for
    :meth:`PauliSum.group_commuting`.

    Builds explicit neighbor lists from :meth:`PauliString.commutes`,
    then colors vertices in descending degree (ties by canonical term
    order) with the smallest color absent from their neighborhood.  The
    canonical order comes from :meth:`PauliString.sort_key` here, not
    from :meth:`PauliSum.terms`.
    """
    term_list = sorted(a.terms(), key=lambda t: t[0].sort_key())
    n = len(term_list)
    strings = [s for s, _ in term_list]
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not strings[i].commutes(strings[j], mode):
                neighbors[i].append(j)
                neighbors[j].append(i)
    order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
    color = [-1] * n
    for v in order:
        used = {color[u] for u in neighbors[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    n_sets = max(color) + 1 if n else 0
    sets: list[list] = [[] for _ in range(n_sets)]
    for i, term in enumerate(term_list):
        sets[color[i]].append(term)
    return tuple(tuple(s) for s in sets)
