"""Seeded, numpy-only inputs and dense reference values for the benchmark.

Everything here is independent of the ``gsee`` package, so the reference
values the benchmark checks against do not share code with the program
under test.  The same seed always gives the same bytes.

Conventions match the program's: spin orbital ``2p + s`` (s = 0 alpha,
1 beta) is qubit ``2p + s``, basis index bit q is qubit q, and the
Jordan-Wigner annihilator a_j carries Z on every qubit below j, so
``a_j|b> = (-1)^popcount(b & (2^j - 1)) |b ^ 2^j>`` when bit j of b is set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the three determinants of the 8-qubit moment workload (4 orbitals)
QCM4_MASKS = (0b01010100, 0b00010101, 0b01000101)
QCELS_NORB = 5
QCELS_TOP_K = 4


# ----------------------------------------------------------------------
# integrals and FCIDUMP text
# ----------------------------------------------------------------------
def random_integrals(norb: int, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Random real integrals with the full 8-fold symmetry.

    The two-body tensor is a sum of outer products of symmetric factors,
    (pq|rs) = sum_k L_k[p,q] L_k[r,s], so it is symmetric under p<->q,
    r<->s and (pq)<->(rs) by construction and positive semidefinite like
    a physical Coulomb tensor.
    """
    rng = np.random.default_rng([seed, norb])
    one = rng.normal(scale=0.3, size=(norb, norb))
    one = 0.5 * (one + one.T) + np.diag(np.linspace(-2.0, -0.5, norb))
    factors = rng.normal(scale=0.35, size=(norb, norb, norb))
    factors = 0.5 * (factors + factors.transpose(0, 2, 1))
    two = np.einsum("kpq,krs->pqrs", factors, factors)
    core = float(rng.uniform(0.2, 1.0))
    return one, two, core


def fcidump_text(
    one: np.ndarray, two: np.ndarray, core: float, nelec: int, ms2: int
) -> str:
    """FCIDUMP with one line per symmetry-unique integral (1-based)."""
    norb = one.shape[0]
    lines = [
        f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},",
        " ORBSYM=" + ",".join("1" * norb) + ",",
        " ISYM=1,",
        "&END",
    ]
    pairs = [(i, j) for i in range(norb) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            value = float(two[i, j, k, l])
            if value != 0.0:
                lines.append(f"{value!r} {i + 1} {j + 1} {k + 1} {l + 1}")
    for i, j in pairs:
        value = float(one[i, j])
        if value != 0.0:
            lines.append(f"{value!r} {i + 1} {j + 1} 0 0")
    lines.append(f"{core!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def read_fcidump(text: str) -> tuple[int, int, int, float, np.ndarray, np.ndarray]:
    """Minimal FCIDUMP reader: (norb, nelec, ms2, core, one, two).

    Fills every symmetry image of each listed integral.
    """
    head, body = text.upper().split("&END", 1)

    def header_int(key: str) -> int:
        tail = head.split(key + "=", 1)[1] if key + "=" in head else "0,"
        return int(tail.split(",", 1)[0])

    norb = header_int("NORB")
    one = np.zeros((norb, norb))
    two = np.zeros((norb,) * 4)
    core = 0.0
    for line in body.splitlines():
        parts = line.split()
        if len(parts) != 5:
            continue
        value = float(parts[0].replace("D", "E"))
        i, j, k, l = (int(p) - 1 for p in parts[1:])
        if i == j == k == l == -1:
            core = value
        elif k == l == -1:
            one[i, j] = one[j, i] = value
        else:
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    two[a, b, c, d] = two[c, d, a, b] = value
    return norb, header_int("NELEC"), header_int("MS2"), core, one, two


# ----------------------------------------------------------------------
# dense second-quantized Hamiltonian
# ----------------------------------------------------------------------
def _ladder(idx: np.ndarray, coef: np.ndarray, j: int, create: bool):
    """Applies a_j or a_j^dagger to (basis index, coefficient) pairs.

    Returns the mask of pairs that survive and their images.
    """
    keep = ((idx >> j) & 1) == (0 if create else 1)
    idx, coef = idx[keep], coef[keep]
    parity = np.bitwise_count(idx & ((1 << j) - 1)) & 1
    return keep, idx ^ (1 << j), coef * (1.0 - 2.0 * parity)


def fock_hamiltonian(one: np.ndarray, two: np.ndarray, core: float) -> np.ndarray:
    """Dense H = core + sum h_pq a+_ps a_qs + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs."""
    norb = one.shape[0]
    dim = 1 << (2 * norb)
    basis = np.arange(dim, dtype=np.int64)
    ones = np.ones(dim)
    rows, cols, vals = [basis], [basis], [np.full(dim, core)]

    def add(ops: list[tuple[int, bool]], weight: float) -> None:
        idx, coef, src = basis, ones, basis
        for j, create in reversed(ops):
            keep, idx, coef = _ladder(idx, coef, j, create)
            src = src[keep]
        rows.append(idx)
        cols.append(src)
        vals.append(weight * coef)

    for p in range(norb):
        for q in range(norb):
            if abs(one[p, q]) >= 1e-14:
                for s in (0, 1):
                    add([(2 * p + s, True), (2 * q + s, False)], one[p, q])
    for p, q, r, s in np.ndindex(two.shape):
        if abs(two[p, q, r, s]) < 1e-14:
            continue
        for a in (0, 1):
            for b in (0, 1):
                add(
                    [(2 * p + a, True), (2 * r + b, True),
                     (2 * s + b, False), (2 * q + a, False)],
                    0.5 * two[p, q, r, s],
                )
    flat = np.concatenate(rows) * dim + np.concatenate(cols)
    dense = np.bincount(flat, weights=np.concatenate(vals), minlength=dim * dim)
    return dense.reshape(dim, dim)


def sector_indices(norb: int, nelec: int, ms2: int) -> np.ndarray:
    """Basis indices with (nelec + ms2)/2 alpha and the rest beta electrons."""
    basis = np.arange(1 << (2 * norb))
    alpha_bits = sum(1 << (2 * p) for p in range(norb))
    n_alpha = np.bitwise_count(basis & alpha_bits)
    n_beta = np.bitwise_count(basis & (alpha_bits << 1))
    want_alpha = (nelec + ms2) // 2
    return basis[(n_alpha == want_alpha) & (n_beta == nelec - want_alpha)]


def top_determinants(
    h: np.ndarray, norb: int, nelec: int, ms2: int, k: int
) -> list[tuple[int, float]]:
    """The k largest determinants of the sector ground state, largest first.

    The eigenvector sign is fixed so the leading coefficient is positive.
    """
    sector = sector_indices(norb, nelec, ms2)
    _, vecs = np.linalg.eigh(h[np.ix_(sector, sector)])
    ground = vecs[:, 0]
    order = np.argsort(-np.abs(ground), kind="stable")[:k]
    sign = 1.0 if ground[order[0]] > 0 else -1.0
    return [(int(sector[i]), float(sign * ground[i])) for i in order]


def ci_json(norb: int, dets: list[tuple[int, float]]) -> str:
    """Determinant file in the program's CI JSON format."""
    payload = {
        "norb": norb,
        "dets": [
            {"mask": format(mask, f"#0{2 * norb + 2}b"), "coeff": coeff}
            for mask, coeff in dets
        ],
    }
    return json.dumps(payload, indent=1) + "\n"


def three_det_coefficients(seed: int) -> list[float]:
    """Normalized ``default_rng(seed).normal(size=3)`` coefficients."""
    coeffs = np.random.default_rng(seed).normal(size=3)
    return [float(c) for c in coeffs / np.linalg.norm(coeffs)]


def ci_state(norb: int, dets: list[tuple[int, float]]) -> np.ndarray:
    amps = np.zeros(1 << (2 * norb))
    for mask, coeff in dets:
        amps[mask] += coeff
    return amps / np.linalg.norm(amps)


# ----------------------------------------------------------------------
# reference values
# ----------------------------------------------------------------------
def pauli_one_norm(matrix: np.ndarray) -> float:
    """Sum of |c_P| over the non-identity Pauli strings of ``matrix``.

    c_P = Tr(P M) / 2^n.  For the string with masks (x, z),
    |Tr(P M)| = |sum_b (-1)^popcount(z & b) M[b ^ x, b]|, a Walsh-Hadamard
    transform over b of each x-diagonal.
    """
    dim = matrix.shape[0]
    basis = np.arange(dim)
    shifted = matrix[basis[None, :] ^ basis[:, None], basis[None, :]]
    walsh = 1.0 - 2.0 * (np.bitwise_count(basis[:, None] & basis[None, :]) & 1)
    coeffs = np.abs(shifted @ walsh) / dim
    return float(coeffs.sum() - coeffs[0, 0])


def moments(h: np.ndarray, psi: np.ndarray) -> list[float]:
    """<psi|H^n|psi> for n = 1..4."""
    out, vec = [], psi
    for _ in range(4):
        vec = h @ vec
        out.append(float(np.real(np.vdot(psi, vec))))
    return out


# ----------------------------------------------------------------------
# workload files
# ----------------------------------------------------------------------
def _write_config(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def write_qcm4(out: Path, fixtures: Path, seed: int) -> dict:
    """Moment workload: bundled 8-qubit model and a seeded 3-determinant state."""
    out.mkdir(parents=True, exist_ok=True)
    text = (fixtures / "spin_polarized.fcidump").read_text()
    (out / "h.fcidump").write_text(text)
    dets = list(zip(QCM4_MASKS, three_det_coefficients(seed)))
    (out / "state.json").write_text(ci_json(4, dets))
    _write_config(out / "qcm4.json", {
        "algorithm": "qcm4",
        "operator": "ingest/operator.json",
        "state": {"determinants": "state.json", "threshold": 0.0},
        "seed": 0,
    })
    _, _, _, core, one, two = read_fcidump(text)
    h = fock_hamiltonian(one, two, core)
    psi = ci_state(4, dets)
    powers = [h]
    for _ in range(3):
        powers.append(powers[-1] @ h)
    return {
        "moments": moments(h, psi),
        "one_norms": [pauli_one_norm(p) for p in powers],
    }


def write_qcels(out: Path, seed: int) -> dict:
    """Phase-estimation workload: random integrals, top-k ground determinants."""
    out.mkdir(parents=True, exist_ok=True)
    norb = QCELS_NORB
    one, two, core = random_integrals(norb, seed)
    nelec, ms2 = norb - 1, 0
    (out / "h.fcidump").write_text(fcidump_text(one, two, core, nelec, ms2))
    h = fock_hamiltonian(one, two, core)
    dets = top_determinants(h, norb, nelec, ms2, QCELS_TOP_K)
    (out / "state.json").write_text(ci_json(norb, dets))
    _write_config(out / "qcels.json", {
        "algorithm": "qcels",
        "operator": "ingest/operator.json",
        "state": {"determinants": "state.json", "threshold": 0.0},
        "seed": 0,
        "qcels": {"n_points": 33},
    })
    return {}


def write_recompile(out: Path, fixtures: Path, seed: int) -> dict:
    """Recompilation workload: bundled H2 with its CI state, 6-layer ansatz."""
    out.mkdir(parents=True, exist_ok=True)
    text = (fixtures / "h2_eq.fcidump").read_text()
    (out / "h.fcidump").write_text(text)
    (out / "state.json").write_text((fixtures / "h2_eq_ci.json").read_text())
    _write_config(out / "recompile.json", {
        "algorithm": "recompile",
        "operator": "ingest/operator.json",
        "state": {"determinants": "state.json", "threshold": 0.0},
        "seed": seed,
        "recompile": {
            "layers": 6, "restarts": 3, "n_points": 4, "max_iterations": 50,
        },
    })
    norb, _, _, core, one, two = read_fcidump(text)
    payload = json.loads((out / "state.json").read_text())
    dets = [(int(d["mask"], 2), float(d["coeff"])) for d in payload["dets"]]
    return {"h": fock_hamiltonian(one, two, core), "psi": ci_state(norb, dets)}


# ----------------------------------------------------------------------
# recompilation check: the ansatz simulated independently
# ----------------------------------------------------------------------
def _one_qubit(state: np.ndarray, q: int, gate: np.ndarray) -> np.ndarray:
    view = state.reshape(-1, 2, 1 << q)
    return np.einsum("ab,ibj->iaj", gate, view).reshape(-1)


def hea_state(n_qubits: int, layers: int, params: np.ndarray) -> np.ndarray:
    """U(theta)|0> for the hardware-efficient ansatz, ancilla on qubit 0.

    Gate order: H on the ancilla; per layer an Rx Rz Rx block on every
    qubit then ZZ(ancilla, q) for q = 1..n-1; one final rotation block.
    """
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    basis = np.arange(1 << n_qubits)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    state = _one_qubit(state, 0, hadamard)
    it = iter(params)

    def rx(t: float) -> np.ndarray:
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])

    def rz(t: float) -> np.ndarray:
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    def block(state: np.ndarray) -> np.ndarray:
        for q in range(n_qubits):
            for gate in (rx, rz, rx):
                state = _one_qubit(state, q, gate(next(it)))
        return state

    for _ in range(layers):
        state = block(state)
        for q in range(1, n_qubits):
            parity = ((basis ^ (basis >> q)) & 1).astype(float)
            state = state * np.exp(-0.5j * next(it) * (1.0 - 2.0 * parity))
    return block(state)


def hadamard_target(
    h: np.ndarray, psi: np.ndarray, h0: float, h1: float, t: float
) -> np.ndarray:
    """(|0>|psi> + |1> exp(-i t (H - h0)/h1)|psi>)/sqrt(2), ancilla on bit 0."""
    vals, vecs = np.linalg.eigh((h - h0 * np.eye(len(h))) / h1)
    evolved = vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ psi))
    out = np.zeros(2 * len(psi), dtype=complex)
    out[0::2] = psi / math.sqrt(2.0)
    out[1::2] = evolved / math.sqrt(2.0)
    return out
