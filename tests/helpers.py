"""Shared dense oracles for the test suite.

Everything here is built independently of the package internals: strings
become matrices through explicit Kronecker products of 2x2 constants, so
package results can be checked against straight linear algebra.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np
from hypothesis import strategies as st

from gsee import qcm4
from gsee.chem import FermionIntegrals
from gsee.circuits import Circuit, Gate
from gsee.pauli import PURGE_TOL, PauliString, PauliSum, gf2_reduce, z_signs
from gsee.simulator import ShotRecord, apply_circuit, derived_rng, simulate_batch

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


def coefficient(a: PauliSum, string: PauliString) -> complex:
    """The coefficient of ``string`` in ``a``; ``0j`` when ``a`` lacks it."""
    if string.min_width > a.n_qubits:
        return 0j
    words = [[(m >> 64 * w) & (2**64 - 1) for w in range(a.x.shape[1])]
             for m in (string.x_mask, string.z_mask)]
    hit = (a.x == np.array(words[0], np.uint64)).all(axis=1)
    hit &= (a.z == np.array(words[1], np.uint64)).all(axis=1)
    return next(iter(a.coeff[hit].tolist()), 0j)


def dense_sum(a: PauliSum) -> np.ndarray:
    dim = 1 << a.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in a.terms():
        out += coeff * dense_string(string, a.n_qubits)
    return out


def sector_ground(a: PauliSum, n_alpha: int, n_beta: int) -> float:
    """Lowest eigenvalue of :func:`dense_sum` on the basis states with
    ``n_alpha`` electrons on the even qubits and ``n_beta`` on the odd ones."""
    index = np.arange(1 << a.n_qubits)
    even = sum(1 << q for q in range(0, a.n_qubits, 2))
    counts = np.bitwise_count(index & even), np.bitwise_count(index & (even << 1))
    sector = index[(counts[0] == n_alpha) & (counts[1] == n_beta)]
    return float(np.linalg.eigvalsh(dense_sum(a)[np.ix_(sector, sector)])[0])


def eig(a: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition ``(eigenvalues, vectors)`` of a sum.

    One batched ``eigh`` per cell size of :meth:`PauliSum.blocks`, the
    vectors scattered into the ``complex128`` columns of a 2^n x 2^n
    unitary; the eigenvalues ascend (a stable sort).
    """
    cells = a.blocks()
    rows = np.concatenate([r.ravel() for r, _ in cells])
    pairs = [np.linalg.eigh(m) for _, m in cells]
    vals = np.concatenate([v.ravel() for v, _ in pairs])
    order = np.argsort(vals, kind="stable")
    cols = np.empty_like(order)
    cols[order] = np.arange(rows.size)  # the inverse permutation
    vecs = np.zeros((rows.size, rows.size), dtype=np.complex128)
    at = 0
    for (r, _), (_, blocks) in zip(cells, pairs):
        col = cols[at : at + r.size].reshape(r.shape)
        vecs[r[:, :, None], col[:, None]] = blocks
        at += r.size
    return vals[order], vecs


def coset_blocks(a: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """The Z2 coset blocks ``(rows, mats)``, one term's action at a time.

    The oracle for :meth:`PauliSum.blocks` with one label: the cosets of
    the x masks' span ordered by their indices with the pivot bits
    cleared, each entry summed from zero in term order per x mask, as
    :meth:`PauliSum.to_dense` sums it.
    """
    real = all(s.phase.imag == 0 for s, _ in a.items())
    pivots, _ = gf2_reduce(s.x_mask for s, _ in a.items())
    dim, block = 1 << a.n_qubits, 1 << len(pivots)
    rep = idx = np.arange(dim)
    for col, prow in pivots.items():
        rep = rep ^ ((rep >> col) & 1) * prow
    order = np.argsort(rep, kind="stable")
    pos = np.argsort(order)
    mats = np.zeros((dim // block, block, block), dtype=float if real else complex)
    by_x = sorted(a.items(), key=lambda t: t[0].x_mask)
    for x, terms in itertools.groupby(by_x, lambda t: t[0].x_mask):
        total = np.zeros(dim, dtype=complex)
        for s, c in terms:
            total += c * s.action(dim)[1]
        mats.reshape(-1)[block * pos + pos[idx ^ x] % block] = total.real if real else total
    return order.reshape(-1, block), mats


def spin_label(b: int) -> tuple[int, int]:
    """(popcount of the even bits, popcount of the odd bits) of an index."""
    bits = [(b >> q) & 1 for q in range(b.bit_length())]
    return sum(bits[0::2]), sum(bits[1::2])


def odd_y_count(x: int, z: int) -> bool:
    return (x & z).bit_count() % 2 == 1


@st.composite
def eig_sums(draw):
    """Real-coefficient sums on 1-6 qubits, all even-Y or with an odd-Y string.

    Even-Y sums have real symmetry blocks and take the real ``eigh`` path;
    a single odd-Y string sends the sum down the complex path.
    """
    n = draw(st.integers(1, 6))
    size = draw(st.integers(0, 30))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(
        st.lists(st.tuples(masks, masks, coeffs), min_size=size, max_size=size)
    )
    terms = [(x, z, c) for x, z, c in terms if not odd_y_count(x, z)]
    if draw(st.booleans()):
        x, z, q = draw(masks), draw(masks), draw(st.integers(0, n - 1))
        if not odd_y_count(x, z):
            # turning qubit q into Y, or a Y on it into I, moves the count by 1
            bit = 1 << q
            x, z = (x & ~bit, z & ~bit) if x & z & bit else (x | bit, z | bit)
        terms.append((x, z, draw(st.floats(0.1, 2.0))))
    return PauliSum(n, [(PauliString(x, z), c) for x, z, c in terms])


@st.composite
def blocked_eig_sums(draw):
    """Sums whose x masks span everything, nothing, or anything between.

    Beside :func:`eig_sums`: a sum holding an X or Y on every qubit (full
    rank, one block), an all-Z sum (2^n blocks of 1) and an identity-only
    sum, each with real coefficients.
    """
    kind = draw(st.sampled_from(["random", "full_rank", "all_z", "identity"]))
    if kind == "random":
        return draw(eig_sums())
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    if kind == "identity":
        return PauliSum(n, {PauliString(): draw(coeffs)})
    terms = [(0, draw(masks), draw(coeffs)) for _ in range(draw(st.integers(0, 20)))]
    if kind == "full_rank":
        # X or Y on qubit q with Z factors below it: odd-Y strings included
        terms += [
            (1 << q, draw(masks) & ((2 << q) - 1), draw(st.floats(0.1, 2.0)))
            for q in range(n)
        ]
    return PauliSum(n, [(PauliString(x, z), c) for x, z, c in terms])


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


def random_integrals(rng, norb, values):
    """Integrals with the 8-fold symmetry, one ``values(rng)`` draw per class."""
    one = np.zeros((norb, norb))
    for p, q in itertools.combinations_with_replacement(range(norb), 2):
        one[p, q] = one[q, p] = values(rng)
    two = np.zeros((norb,) * 4)
    drawn = {}
    for p, q, r, s in itertools.product(range(norb), repeat=4):
        images = {(a, b, c, d) for a, b in ((p, q), (q, p)) for c, d in ((r, s), (s, r))}
        images |= {(c, d, a, b) for a, b, c, d in images}
        key = min(images)
        if key not in drawn:
            drawn[key] = values(rng)
        two[p, q, r, s] = drawn[key]
    return FermionIntegrals(norb, 0, 0, values(rng), one, two)


def z_padded_sum(
    rng: np.random.Generator, n_qubits: int
) -> tuple[PauliSum, PauliSum]:
    """A random 3-qubit Hermitian sum on qubits 0-2 plus Z on every other qubit.

    Returns the ``n_qubits``-qubit sum and its 3-qubit part.  Only the part
    flips bits, so every symmetry block holds the part's matrix shifted by
    the Z terms' constant on that block.
    """
    small = random_sum(rng, 3, 12)
    z_terms = {PauliString(0, 1 << q): rng.normal() for q in range(3, n_qubits)}
    return PauliSum(n_qubits, dict(small.terms()) | z_terms), small


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


def fixed_angles(circuit: Circuit, values) -> Circuit:
    """``circuit`` with ``values[g.param]`` as the angle of each symbolic gate."""
    return Circuit(circuit.n_qubits, [
        g if g.param is None
        else Gate(g.kind, g.qubits, angle=float(values[g.param]), pauli=g.pauli)
        for g in circuit.gates
    ])


def circuit_unitary(circuit) -> np.ndarray:
    """Product of dense gate matrices; requires a fully bound circuit."""
    dim = 1 << circuit.n_qubits
    out = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        out = gate_matrix(gate, circuit.n_qubits) @ out
    return out


def gather_hadamard(amps: np.ndarray, q: int) -> None:
    """H on qubit ``q`` along the last axis, in place, by index gathers.

    ``lo`` lists the indices with bit ``q`` clear and ``hi`` their
    partners with it set; both halves are gathered, mixed and scattered
    back.  The oracle for the simulator's reshaped-view Hadamard.
    """
    idx = np.arange(amps.shape[-1])
    bit = (idx >> q) & 1 == 1
    lo, hi = idx[~bit], idx[bit]
    a0 = amps[..., lo]
    a1 = amps[..., hi]
    amps[..., lo] = (a0 + a1) * np.sqrt(0.5)
    amps[..., hi] = (a0 - a1) * np.sqrt(0.5)


def reference_simulate(circuit, initial: np.ndarray) -> np.ndarray:
    """A bound circuit on (batch, 2^n) amplitudes, one gate at a time.

    Hadamards go through :func:`gather_hadamard`, and every rotation
    applies the dense Pauli action through ``PauliString.act``.  The
    simulator's compiled kernels must reproduce this bit for bit, so
    their outputs, and every artifact computed from them, do not depend
    on the compilation.
    """
    amps = np.array(initial, dtype=complex)
    for gate in circuit.gates:
        if gate.kind == "h":
            gather_hadamard(amps, gate.qubits[0])
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


def replay_reference(strings, ops: list[tuple], n_qubits: int) -> tuple[list, list]:
    """A commuting set pushed through its chosen generators as a whole.

    The set is transposed to per-qubit integers, ``qcm4._conjugate`` runs
    over every op, and the Z bits are transposed back: a replay after the
    gates are chosen, the oracle for the Z masks and signs that
    ``qcm4._diagonalizing_ops`` carries through its one tableau pass.
    Returns ``(z_masks, signs)``.
    """
    x = qcm4._transpose([s.x_mask for s in strings], n_qubits)
    z = qcm4._transpose([s.z_mask for s in strings], n_qubits)
    parity = qcm4._conjugate(x, z, 0, ops)
    assert not any(x), "a set member kept an X or Y factor"
    signs = [1 - 2 * (parity >> k & 1) for k in range(len(strings))]
    return qcm4._transpose(z, len(strings)), signs


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


def choice_sample_reference(state, spc: int, seed: int, stream=()) -> ShotRecord:
    """``spc`` shots by ``Generator.choice``, one index per shot, then counted.

    The oracle for :func:`gsee.simulator.sample_z`: the same
    :func:`derived_rng` stream and normalized probabilities, drawn with
    ``rng.choice`` and turned into a histogram by ``np.unique``.
    """
    rng = derived_rng(seed, *stream)
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    shots = rng.choice(len(probs), size=spc, p=probs).astype(np.int64)
    return ShotRecord(state.n_qubits, spc, *np.unique(shots, return_counts=True))


def cdf_sample_reference(state, spc: int, seed: int, stream=()) -> ShotRecord:
    """``spc`` shots counted against the cdf of every basis index.

    The oracle for :func:`gsee.simulator.sample_z`'s search over the
    state's support alone: the same stream, uniforms and normalization,
    with the cdf and the counts taken over all 2^n indices.
    """
    rng = derived_rng(seed, *stream)
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniforms = np.sort(rng.random(spc))
    counts = np.diff(np.searchsorted(uniforms, cdf), prepend=0)
    outcomes = np.flatnonzero(counts)
    return ShotRecord(state.n_qubits, spc, outcomes, counts[outcomes])


def add_terms_reference(moments: np.ndarray, circuit, values: np.ndarray) -> None:
    """Adds ``(batch, n_terms)`` term values into ``(batch, 4)`` moments, one
    term at a time, zero coefficients included: the oracle for
    ``qcm4._add_terms``, which skips them (x + ±0.0 is x for any x but -0.0,
    and no moment is -0.0)."""
    for row, column in zip(circuit.coeffs, values.T):
        moments += column[:, None] * row


def estimate_reference(measurement_plan, psi, spc: int | None = None, seed: int = 0):
    """The moments of ``qcm4.estimate`` with uniform shots, circuit by circuit.

    Each Clifford runs through :func:`apply_circuit` alone; exact mode
    takes one dot of the probabilities per term, shots mode
    :func:`choice_sample_reference` on stream (seed, circuit index), and
    :func:`add_terms_reference` adds each circuit's term values.
    """
    moments = np.array([measurement_plan.constants])
    basis = np.arange(1 << psi.n_qubits)
    for ci, circuit in enumerate(measurement_plan.circuits):
        rotated = apply_circuit(psi, circuit.clifford)
        masks, signs = circuit.z_masks, circuit.signs
        if spc is None:
            probs = np.abs(rotated.amplitudes) ** 2
            table = z_signs(basis[:, None], masks) * signs
            values = np.array([probs @ np.ascontiguousarray(c) for c in table.T])
        else:
            record = choice_sample_reference(rotated, spc, seed, (ci,))
            table = z_signs(record.outcomes[:, None], masks) * signs
            values = record.counts @ table / spc
        add_terms_reference(moments, circuit, values[None])
    return tuple(moments[0].tolist())


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Operator product ``a · b`` of two strings as ``(phase, string)``.

    The phase is one of ``+1, +i, -1, -i``; ``phase * string`` equals
    the matrix product exactly.
    """
    xc, zc = a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask
    # Per qubit, with P(x,z) = i^{xz} X^x Z^z:
    #   P(a)P(b) = i^{xa·za + xb·zb + 2·za·xb − xc·zc} P(c).
    g = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (xc & zc).bit_count()
    )
    return (1 + 0j, 1j, -1 + 0j, -1j)[g % 4], PauliString(xc, zc)


def loop_product(
    a: Mapping[PauliString, complex], b: Mapping[PauliString, complex]
) -> dict[PauliString, complex]:
    """Terms of the product ``a · b``, one term pair at a time, unpurged.

    The oracle for :meth:`PauliSum.__matmul__`: coefficients add from
    ``0j`` in term-pair order, and strings keep their first pair's place.
    """
    out: dict[PauliString, complex] = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            phase, prod = multiply(sa, sb)
            out[prod] = out.get(prod, 0j) + ca * cb * phase
    return out


def purged_product(
    a: Mapping[PauliString, complex], b: Mapping[PauliString, complex]
) -> dict[PauliString, complex]:
    """:func:`loop_product` without the terms ``PauliSum`` purges."""
    return {s: c for s, c in loop_product(a, b).items() if abs(c) > PURGE_TOL}


def jordan_wigner_reference(fi: FermionIntegrals) -> PauliSum:
    """The Jordan–Wigner map one term at a time, the oracle for ``jordan_wigner``.

    Each one- and two-body term is a product of purged ladder products in
    canonical order, scaled by its integral and appended to one list
    after the core energy; the constructor adds the list up in order.
    """
    n = 2 * fi.norb

    def ladder(j: int, dagger: bool) -> dict[PauliString, complex]:
        # a_j = (X_j + iY_j)/2 x Z_(k<j); the dagger flips the Y sign
        return {
            PauliString(1 << j, (1 << j) - 1): 0.5 + 0j,
            PauliString(1 << j, (2 << j) - 1): -0.5j if dagger else 0.5j,
        }

    def in_order(terms: dict[PauliString, complex]) -> list:
        return sorted(terms.items(), key=lambda t: t[0].sort_key())

    create = [ladder(j, True) for j in range(n)]
    destroy = [ladder(j, False) for j in range(n)]
    pairs: list[tuple[PauliString, complex]] = [
        (PauliString(), complex(fi.core_energy))
    ]
    norb = range(fi.norb)
    for p in norb:
        for q in norb:
            v = fi.one_body[p, q]
            if abs(v) < 1e-14:
                continue
            for spin in (0, 1):
                op = purged_product(create[2 * p + spin], destroy[2 * q + spin])
                pairs.extend((s, v * c) for s, c in in_order(op))
    for p in norb:
        for q in norb:
            for r in norb:
                for s in norb:
                    v = fi.two_body[p, q, r, s]
                    if abs(v) < 1e-14:
                        continue
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            op = purged_product(
                                purged_product(create[2 * p + sigma], create[2 * r + tau]),
                                purged_product(destroy[2 * s + tau], destroy[2 * q + sigma]),
                            )
                            pairs.extend((st, 0.5 * v * c) for st, c in in_order(op))
    h = PauliSum(n, pairs)
    return PauliSum(n, {s: c.real for s, c in h.terms()})
