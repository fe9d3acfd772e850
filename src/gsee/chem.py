"""Molecular-integral ingestion and qubit-space preparation.

Covers FCIDUMP parsing, the Jordan-Wigner transform over interleaved
spin orbitals (qubit 2p = orbital p alpha, qubit 2p+1 = beta), removal
of qubits along Z2 symmetries, and multi-determinant initial states.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .pauli import PauliString, PauliSum, gf2_reduce, z_signs
from .simulator import StateVector

__all__ = [
    "FermionIntegrals",
    "Determinant",
    "TaperingReport",
    "parse_fcidump",
    "jordan_wigner",
    "fix_qubits",
    "taper_z2",
    "taper_state",
    "ci_initial_state",
    "determinants_from_json",
]


@dataclass(frozen=True)
class FermionIntegrals:
    """Spatial-orbital integrals in chemist's notation.

    ``two_body[p, q, r, s]`` is (pq|rs); both tensors carry the full
    8-fold real-orbital symmetry so lookups never need permutation.
    """

    norb: int
    nelec: int
    ms2: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray


@dataclass(frozen=True)
class Determinant:
    """One Slater determinant: spin-orbital occupation mask + coefficient.

    Bit 2p of ``mask`` is orbital p alpha, bit 2p+1 is orbital p beta.
    """

    mask: int
    coeff: float


@dataclass(frozen=True)
class TaperingReport:
    """Outcome of a Z2 reduction.

    ``generators[i]`` is the Z-type symmetry fixed to ``sector_signs[i]``
    and pivoted on qubit ``pivots[i]``; ``qubit_map`` sends every kept
    original qubit index to its index in ``reduced``.
    """

    n_qubits: int
    generators: tuple[PauliString, ...]
    sector_signs: tuple[int, ...]
    pivots: tuple[int, ...]
    qubit_map: dict[int, int]
    reduced: PauliSum


# ----------------------------------------------------------------------
# FCIDUMP
# ----------------------------------------------------------------------
def parse_fcidump(text: str) -> FermionIntegrals:
    """Parses FCIDUMP text: namelist header, then "value i j k l" lines.

    1-based indices; ``i=j=k=l=0`` is the core energy, ``k=l=0`` a
    one-body element, anything else a chemist-notation (ij|kl).  All
    symmetry images of each line are populated.

    Raises:
        ValueError: malformed header, non-numeric or non-finite value, or
            index out of range.
    """
    stripped = text.lstrip()
    if not stripped.upper().startswith("&FCI"):
        raise ValueError("FCIDUMP header must start with &FCI")
    upper = stripped.upper()
    end = re.search(r"&END|/", upper)
    if end is None:
        raise ValueError("FCIDUMP header is never terminated (&END or /)")
    header = upper[: end.start()]
    body = stripped[end.end():]

    def header_int(key: str, required: bool = True, default: int = 0) -> int:
        m = re.search(rf"{key}\s*=\s*(-?\d+)", header)
        if m is None:
            if required:
                raise ValueError(f"FCIDUMP header lacks {key}")
            return default
        return int(m.group(1))

    norb = header_int("NORB")
    nelec = header_int("NELEC")
    ms2 = header_int("MS2", required=False)
    if norb < 1:
        raise ValueError(f"NORB must be positive, got {norb}")

    core = 0.0
    h1 = np.zeros((norb, norb))
    h2 = np.zeros((norb, norb, norb, norb))
    # absolute line numbers: lines consumed by whitespace plus the header
    offset = text[: (len(text) - len(stripped)) + end.end()].count("\n")
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"line {offset + lineno}"
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{where}: expected 'value i j k l', got {line!r}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"{where}: non-numeric FCIDUMP entry {line!r}") from exc
        if not np.isfinite(value):
            raise ValueError(f"{where}: non-finite FCIDUMP value in {line!r}")
        if any(idx < 0 or idx > norb for idx in (i, j, k, l)):
            raise ValueError(f"{where}: orbital index out of range in {line!r}")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"{where}: one-body entry with zero index: {line!r}")
            h1[i - 1, j - 1] = h1[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise ValueError(f"{where}: two-body entry with zero index: {line!r}")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    h2[a, b, c, d] = h2[c, d, a, b] = value
    return FermionIntegrals(norb, nelec, ms2, core, h1, h2)


# ----------------------------------------------------------------------
# Jordan-Wigner
# ----------------------------------------------------------------------
def jordan_wigner(fi: FermionIntegrals) -> PauliSum:
    """Second-quantized Hamiltonian on 2·norb qubits.

    H = E_core + sum_pq,s h_pq a+_ps a_qs
       + 1/2 sum_pqrs,st (pq|rs) a+_ps a+_rt a_st a_qs,
    with interleaved spin orbitals and a_j = (X_j + iY_j)/2 x Z_(k<j).
    Each term with an integral of at least 1e-14 in magnitude is one row of
    :meth:`PauliSum.from_products`, padded to four factors by identities.
    Its ladder product is combined exactly before it is weighted, and the
    weighted rows add into each string from zero in this order: the core
    energy; the one-body terms by (p, q, spin); the two-body terms by
    (p, q, r, s, sigma, tau).  The output is Hermitian with real
    coefficients.
    """
    n = 2 * fi.norb
    # a+_j is factor j, a_j factor n + j, and the identity 2n pads rows
    factors = [
        PauliSum(n, {PauliString(1 << j, (1 << j) - 1): 0.5,
                     PauliString(1 << j, (2 << j) - 1): -0.5j if dagger else 0.5j})
        for dagger in (True, False)
        for j in range(n)
    ] + [PauliSum(n, {PauliString(): 1.0})]
    pad, spin = 2 * n, np.arange(2)
    p, q = np.nonzero(np.abs(fi.one_body) >= 1e-14)
    one = (2 * p[:, None] + spin, n + 2 * q[:, None] + spin, pad, pad)
    weights = [[fi.core_energy], fi.one_body[p, q].repeat(2)]
    two_body = np.nonzero(np.abs(fi.two_body) >= 1e-14)
    p, q, r, s = (v[:, None, None] for v in two_body)
    sigma, tau = spin[:, None], spin
    two = (2 * p + sigma, 2 * r + tau, n + 2 * s + tau, n + 2 * q + sigma)
    weights.append((0.5 * fi.two_body[p, q, r, s]).repeat(4))
    rows = [np.stack(np.broadcast_arrays(*c), -1).reshape(-1, 4) for c in (one, two)]
    rows = np.concatenate([[[pad] * 4], *rows])
    h = PauliSum.from_products(n, factors, rows, np.concatenate(weights))
    if not h.is_hermitian(1e-10):
        raise AssertionError("mapped Hamiltonian lost Hermiticity")
    # imaginary dust from Y-pair products cancels exactly; drop the residue
    h = h.canonical()
    return PauliSum.from_arrays(n, h.x, h.z, h.coeff.real)


# ----------------------------------------------------------------------
# symmetry reduction
# ----------------------------------------------------------------------
def fix_qubits(
    h: PauliSum, assignments: Mapping[int, tuple[str, int]]
) -> PauliSum:
    """Projects qubits onto fixed single-qubit eigenstates and deletes them.

    ``assignments`` maps qubit -> (axis, sign): the qubit is pinned to the
    sign eigenstate of that Pauli axis.  Terms acting with the pinned axis
    pick up the sign; terms acting with any other axis are annihilated by
    the projection; untouched qubits are relabeled contiguously.
    """
    for q, (axis, sign) in assignments.items():
        if not 0 <= q < h.n_qubits:
            raise ValueError(f"fixed qubit {q} outside register")
        if axis not in ("X", "Y", "Z") or sign not in (-1, 1):
            raise ValueError(f"bad assignment {(axis, sign)!r} for qubit {q}")
    kept = [q for q in range(h.n_qubits) if q not in assignments]
    pairs: list[tuple[PauliString, complex]] = []
    for string, coeff in h.terms():
        support = string.support
        pinned = [(support[q], *assignments[q]) for q in assignments if q in support]
        if all(a == axis for a, axis, _ in pinned):
            factor = float(math.prod(sign for _, _, sign in pinned))
            x, z = (sum(((m >> q) & 1) << i for i, q in enumerate(kept))
                    for m in (string.x_mask, string.z_mask))
            pairs.append((PauliString(x, z), factor * coeff))
    return PauliSum(len(kept), pairs)


def _gf2_nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of the GF(2) solution space {v : popcount(row & v) even}."""
    pivots, _ = gf2_reduce(rows)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = 1 << f
        for col, prow in pivots.items():
            if (prow >> f) & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def taper_z2(
    h: PauliSum,
    reference: Determinant | int,
    generators: Sequence[PauliString] | None = None,
) -> TaperingReport:
    """Removes qubits along Z2 symmetries of ``h``.

    By default the full independent symmetry set is discovered as the
    kernel of the binary symplectic check matrix of the terms over GF(2);
    a subset (e.g. just the per-spin particle parities) may be supplied
    instead to control how many qubits are removed.  Sector signs come
    from the reference determinant; each generator is conjugated to an X
    on its pivot qubit by the Clifford U = (g + X_pivot)/sqrt(2), after
    which the pivot is projected out.  U H U is formed as the product
    (g + X_pivot) H (g + X_pivot) of unit coefficients, halved once, so no
    rounded sqrt(1/2) enters the tapered coefficients.

    Raises:
        ValueError: the reference is not an eigenvector of some generator
            (any generator with an X/Y component), a supplied generator
            fails to commute with ``h``, or the generators are dependent.
    """
    if not h.is_hermitian():
        raise ValueError("tapering expects a Hermitian operator")
    n = h.n_qubits
    terms = h.terms()
    ref_mask = reference.mask if isinstance(reference, Determinant) else int(reference)
    if ref_mask >> n:
        raise ValueError("reference mask outside the register")

    if generators is None:
        rows = [s.z_mask | (s.x_mask << n) for s, _ in terms]
        candidates = [
            PauliString(v & ((1 << n) - 1), v >> n) for v in _gf2_nullspace(rows, 2 * n)
        ]
        candidates.sort(key=lambda s: s.sort_key())
    else:
        candidates = [PauliString(g.x_mask, g.z_mask) for g in generators]
        for g in candidates:
            if g.min_width > n:
                raise ValueError(f"generator {g.to_label()!r} outside register")
            bad = [s for s, _ in terms if not g.commutes(s)]
            if bad:
                raise ValueError(
                    f"generator {g.to_label()!r} does not commute with "
                    f"{bad[0].to_label()!r}"
                )
    for g in candidates:
        if g.x_mask:
            raise ValueError(
                f"reference determinant is not an eigenvector of "
                f"{g.to_label()!r}"
            )

    # fully reduced, so each pivot's X anticommutes with its own generator only
    reduced, dependent = gf2_reduce(g.z_mask for g in candidates)
    if dependent:
        raise ValueError("symmetry generators are not independent")
    pivoted = list(reduced.items())
    reduced_h = h
    signs = []
    fixes = {}
    for pivot, mask in pivoted:
        sign = -1 if (ref_mask & mask).bit_count() & 1 else 1
        signs.append(sign)
        fixes[pivot] = ("X", sign)
        clifford = PauliSum(n, [(PauliString(0, mask), 1.0), (PauliString(1 << pivot, 0), 1.0)])
        reduced_h = (clifford @ reduced_h @ clifford) * 0.5
    reduced_h = fix_qubits(reduced_h, fixes)
    kept = [q for q in range(n) if q not in fixes]
    return TaperingReport(
        n_qubits=n,
        generators=tuple(PauliString(0, mask) for _, mask in pivoted),
        sector_signs=tuple(signs),
        pivots=tuple(pivot for pivot, _ in pivoted),
        qubit_map={q: i for i, q in enumerate(kept)},
        reduced=reduced_h,
    )


def taper_state(report: TaperingReport, state: StateVector) -> StateVector:
    """Carries a full-register state into the tapered register.

    The report's Cliffords, then each pivot projected onto its sector's X
    eigenstate, in closed form: one gather.  A kept index has one completion
    in the sector, the pivot bits that give each generator its sector sign,
    and its amplitude there takes the sector sign once per pivot set to 0.
    Out-of-sector weight shows up as lost norm.

    Raises:
        ValueError: the state has weight outside the sector.
    """
    if state.n_qubits != report.n_qubits:
        raise ValueError("state width does not match the tapering report")
    kept = sorted(report.qubit_map, key=report.qubit_map.get)
    if not kept:
        raise ValueError("no qubits remain after tapering")
    idx = np.arange(1 << len(kept))
    full = sum(((idx >> j) & 1) << q for j, q in enumerate(kept))  # disjoint bits
    sign = np.ones(len(idx))
    # a pivot lies in its own generator only, so its bit alone gives g the sign s
    for g, pivot, s in zip(report.generators, report.pivots, report.sector_signs):
        bit = z_signs(full, g.z_mask) != s
        full |= bit.astype(full.dtype) << pivot
        sign[~bit] *= s
    out = sign * state.amplitudes[full]
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(
            f"state lies outside the selected symmetry sector (norm {norm})"
        )
    return StateVector(len(kept), out / norm)


# ----------------------------------------------------------------------
# initial states
# ----------------------------------------------------------------------
def ci_initial_state(
    dets: Sequence[Determinant], threshold: float, n_qubits: int
) -> StateVector:
    """Thresholded, renormalized superposition of determinants.

    Determinants with |coefficient| <= threshold are dropped before
    normalization.

    Raises:
        ValueError: the register exceeds AMPLITUDE_CAP (checked before
            any allocation), nothing survives the threshold, or a mask
            exceeds the register.
    """
    StateVector.check_width(n_qubits)
    kept = [d for d in dets if abs(d.coeff) > threshold]
    if not kept:
        raise ValueError("no determinants survive the threshold")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    for det in kept:
        if det.mask >> n_qubits:
            raise ValueError(f"determinant mask {det.mask:#b} outside register")
        amps[det.mask] += det.coeff
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def determinants_from_json(text: str) -> tuple[int, list[Determinant]]:
    payload = json.loads(text)
    norb = payload["norb"]
    if type(norb) is not int:
        raise ValueError("norb must be an integer")
    dets = [
        Determinant(int(entry["mask"], 2), float(entry["coeff"]))
        for entry in payload["dets"]
    ]
    if not all(np.isfinite(d.coeff) for d in dets):
        raise ValueError("non-finite determinant coefficient")
    return norb, dets
