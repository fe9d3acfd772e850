"""Exact algebra over Pauli strings and weighted Pauli sums.

Strings are held in a symplectic bitmask representation: a string is the
pair of integers ``(x_mask, z_mask)`` where bit ``q`` of ``x_mask`` /
``z_mask`` records an X / Z factor on qubit ``q``, and a Y factor sets
both bits.  Products, commutation checks, and dense-matrix actions then
reduce to bit arithmetic.

The qubit-to-amplitude convention used throughout the package is little
endian: qubit ``q`` is bit ``q`` of the computational-basis index.  With
``P = i^{|x&z|} X^x Z^z``, a string maps ``|b>`` to
``i^{|x&z|} (-1)^{|z&b|} |b^x>`` (Aaronson & Gottesman, PRA 70, 052328,
2004).  This module is the only place that action is computed:
:meth:`PauliString.action` serves the simulator, the dense matrices and
tapering, and :func:`z_signs` Z-basis estimation.  :func:`gf2_reduce`
serves tapering and the dependent-string test of measurement planning;
``qcm4._diagonalizing_ops`` keeps its own column-by-column x-block
reduction, because those pivots choose the Clifford gates it emits and
the qcm4 shot records depend on them.

Example:
    >>> phase, product = PauliString.from_label("X0").multiply(
    ...     PauliString.from_label("Y0"))
    >>> phase, product.to_label()
    (1j, 'Z0')
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "PauliString",
    "PauliSum",
    "gf2_reduce",
    "sum_multiply",
    "z_signs",
    "PURGE_TOL",
    "DENSE_MATRIX_CAP",
]

# Coefficients at or below this magnitude are purged after arithmetic;
# double-precision cancellation residue lands well below it.
PURGE_TOL = 1e-14

# Dense 2^n x 2^n paths (matrices, eigendecompositions) refuse wider
# registers; desk-scale memory runs out shortly after.  Below the cap they
# also refuse an allocation larger than physical memory (see
# :func:`_check_dense_memory`).
DENSE_MATRIX_CAP = 14

# Rows of the commutation graph computed per vectorized step in
# :meth:`PauliSum.group_commuting`.  It bounds the working memory to a few
# (block, n_terms) buffers; at 5,459 terms 64 rows ran faster than 256.
_CLASH_BLOCK = 64

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_AXIS_FROM_BITS = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FROM_AXIS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_AXIS_RANK = {"X": 0, "Y": 1, "Z": 2}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators.

    Attributes:
        x_mask: bit ``q`` set iff the factor on qubit ``q`` is X or Y.
        z_mask: bit ``q`` set iff the factor on qubit ``q`` is Z or Y.

    The empty string (both masks zero) is the identity.
    """

    x_mask: int = 0
    z_mask: int = 0

    @classmethod
    def from_support(cls, support: Mapping[int, str]) -> "PauliString":
        """Builds a string from a ``{qubit: axis}`` mapping.

        Args:
            support: map from qubit index to one of ``"X"``, ``"Y"``, ``"Z"``.

        Raises:
            ValueError: on a negative qubit index or unknown axis letter.
        """
        x = z = 0
        for q, axis in support.items():
            if q < 0:
                raise ValueError(f"negative qubit index {q}")
            try:
                bx, bz = _BITS_FROM_AXIS[axis]
            except KeyError:
                raise ValueError(f"unknown Pauli axis {axis!r}") from None
            x |= bx << q
            z |= bz << q
        return cls(x, z)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parses a label such as ``"X0 Y3 Z5"``; ``""`` is the identity.

        Raises:
            ValueError: on malformed tokens or a repeated qubit index.
        """
        support: dict[int, str] = {}
        for token in label.split():
            axis, index = token[0].upper(), token[1:]
            if axis not in _AXIS_RANK or not index.isdigit():
                raise ValueError(f"malformed Pauli token {token!r}")
            q = int(index)
            if q in support:
                raise ValueError(f"qubit {q} appears twice in {label!r}")
            support[q] = axis
        return cls.from_support(support)

    @property
    def support(self) -> dict[int, str]:
        """Map from qubit index to axis, in ascending qubit order."""
        out: dict[int, str] = {}
        occ = self.x_mask | self.z_mask
        q = 0
        while occ >> q:
            bx, bz = (self.x_mask >> q) & 1, (self.z_mask >> q) & 1
            if bx or bz:
                out[q] = _AXIS_FROM_BITS[(bx, bz)]
            q += 1
        return out

    @property
    def phase(self) -> complex:
        """``i^{|x&z|}``, the phase that makes each Y factor ``iXZ``."""
        return _PHASES[(self.x_mask & self.z_mask).bit_count() % 4]

    def action(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """``(src, d)`` with ``(P a)[i] = d[i] · a[src[i]]`` for ``dim`` amplitudes."""
        src = np.arange(dim) ^ self.x_mask
        return src, self.phase * z_signs(src, self.z_mask)

    def act(self, amps: np.ndarray) -> np.ndarray:
        """The string applied to amplitudes along their last axis."""
        src, d = self.action(amps.shape[-1])
        return amps[..., src] * d

    @property
    def is_identity(self) -> bool:
        return not (self.x_mask | self.z_mask)

    @property
    def weight(self) -> int:
        """Number of qubits the string acts on non-trivially."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def min_width(self) -> int:
        """Smallest register width containing the support."""
        return (self.x_mask | self.z_mask).bit_length()

    def to_label(self) -> str:
        return " ".join(f"{axis}{q}" for q, axis in self.support.items())

    def sort_key(self) -> tuple:
        """Canonical ordering key: lexicographic by (qubit index, X<Y<Z)."""
        return tuple((q, _AXIS_RANK[a]) for q, a in self.support.items())

    def multiply(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """Operator product ``self · other`` as ``(phase, string)``.

        The phase is one of ``+1, +i, -1, -i``; ``phase * string`` equals
        the matrix product exactly.
        """
        xc = self.x_mask ^ other.x_mask
        zc = self.z_mask ^ other.z_mask
        # Per qubit, with P(x,z) = i^{xz} X^x Z^z:
        #   P(a)P(b) = i^{xa·za + xb·zb + 2·za·xb − xc·zc} P(c).
        g = (
            (self.x_mask & self.z_mask).bit_count()
            + (other.x_mask & other.z_mask).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
            - (xc & zc).bit_count()
        )
        return _PHASES[g % 4], PauliString(xc, zc)

    def commutes(self, other: "PauliString", mode: str = "full") -> bool:
        """Commutation test under the chosen mode.

        Args:
            mode: ``"full"`` — true iff the number of qubits where both
                strings act with different axes is even (operator-level
                commutation); ``"qubitwise"`` — true iff the axes agree on
                every shared qubit.
        """
        if mode == "full":
            sym = (self.x_mask & other.z_mask).bit_count() + (
                self.z_mask & other.x_mask
            ).bit_count()
            return sym % 2 == 0
        if mode == "qubitwise":
            shared = (self.x_mask | self.z_mask) & (other.x_mask | other.z_mask)
            differ = (self.x_mask ^ other.x_mask) | (self.z_mask ^ other.z_mask)
            return differ & shared == 0
        raise ValueError(f"unknown commutation mode {mode!r}")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.to_label() or "I"


def _mask_arrays(
    strings: list[PauliString], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """X and Z masks as ``uint64`` arrays of shape ``(len(strings), W)``.

    Word ``w`` holds qubits ``64w .. 64w+63``; ``W = max(1, ceil(n/64))``.
    """
    n_words = max(1, -(-n_qubits // 64))
    word = (1 << 64) - 1
    x = np.empty((len(strings), n_words), dtype=np.uint64)
    z = np.empty((len(strings), n_words), dtype=np.uint64)
    for w in range(n_words):
        shift = 64 * w
        x[:, w] = [(s.x_mask >> shift) & word for s in strings]
        z[:, w] = [(s.z_mask >> shift) & word for s in strings]
    return x, z


def _clash_blocks(
    x: np.ndarray, z: np.ndarray, rows: np.ndarray, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows of the non-commutation graph, :data:`_CLASH_BLOCK` at a time.

    Yields ``(block_rows, clash)`` for consecutive slices of ``rows``, where
    ``clash[i, j]`` is true iff string ``block_rows[i]`` fails to commute
    with string ``j`` under ``mode`` (see :meth:`PauliString.commutes`).
    ``clash`` is a view of a buffer that the next block overwrites.
    """
    n, n_words = x.shape
    acc = np.empty((min(_CLASH_BLOCK, n), n), dtype=np.uint64)
    tmp, tmp2 = np.empty_like(acc), np.empty_like(acc)
    flag = np.empty(acc.shape, dtype=np.uint8)
    occ = x | z
    for start in range(0, len(rows), _CLASH_BLOCK):
        block_rows = rows[start : start + _CLASH_BLOCK]
        k = len(block_rows)
        a, t, t2, f = acc[:k], tmp[:k], tmp2[:k], flag[:k]
        a.fill(0)
        for w in range(n_words):
            xa, za = x[block_rows, w, None], z[block_rows, w, None]
            xb, zb = x[:, w], z[:, w]
            if mode == "full":
                # popcount(p) + popcount(q) and popcount(p ^ q) share their
                # parity, so XOR-folding keeps the symplectic product's parity
                a ^= np.bitwise_and(xa, zb, out=t)
                a ^= np.bitwise_and(za, xb, out=t)
            else:
                # axes differ on a qubit both strings act on
                np.bitwise_xor(xa, xb, out=t)
                t |= np.bitwise_xor(za, zb, out=t2)
                t &= occ[block_rows, w, None]
                a |= np.bitwise_and(t, occ[:, w], out=t)
        if mode == "full":
            np.bitwise_count(a, out=f)
            f &= 1
        else:
            np.not_equal(a, 0, out=f.view(bool))
        yield block_rows, f.view(bool)


def _physical_memory() -> int | None:
    """Physical memory in bytes, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense_memory(n_bytes: int, what: str) -> None:
    """Raises before a dense allocation larger than physical memory.

    Raises:
        ValueError: ``n_bytes`` exceeds the machine's physical memory.
    """
    available = _physical_memory()
    if available is not None and n_bytes > available:
        raise ValueError(
            f"{what} needs about {n_bytes:,} bytes, more than the "
            f"{available:,} bytes of physical memory"
        )


class PauliSum:
    """A weighted sum of Pauli strings on a fixed register width.

    Terms are kept combined and purged: after any arithmetic there is at
    most one entry per string and no coefficient with magnitude at or
    below :data:`PURGE_TOL`.  Instances are immutable.
    """

    __slots__ = ("_n_qubits", "_terms")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, complex]
        | Iterable[tuple[PauliString, complex]] = (),
    ) -> None:
        if n_qubits < 0:
            raise ValueError("register width must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        combined: dict[PauliString, complex] = {}
        for string, coeff in items:
            if string.min_width > n_qubits:
                raise ValueError(
                    f"term {string.to_label()!r} exceeds register width {n_qubits}"
                )
            combined[string] = combined.get(string, 0j) + complex(coeff)
        self._n_qubits = n_qubits
        self._terms = {
            s: c for s, c in combined.items() if abs(c) > PURGE_TOL
        }

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def terms(self) -> list[tuple[PauliString, complex]]:
        """Terms in canonical order (identity first)."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0j)

    @property
    def identity_coefficient(self) -> complex:
        return self._terms.get(PauliString(), 0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._n_qubits == other._n_qubits and self._terms == other._terms

    def one_norm(self) -> float:
        """Coefficient 1-norm, an upper bound on the spectral norm."""
        return float(sum(abs(c) for c in self._terms.values()))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _require_same_width(self, other: "PauliSum") -> None:
        if self._n_qubits != other._n_qubits:
            raise ValueError(
                f"register-width mismatch: {self._n_qubits} vs {other._n_qubits}"
            )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_width(other)
        merged = dict(self._terms)
        for s, c in other._terms.items():
            merged[s] = merged.get(s, 0j) + c
        return PauliSum(self._n_qubits, merged)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(
            self._n_qubits, {s: c * scalar for s, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_width(other)
        out: dict[PauliString, complex] = {}
        for sa, ca in self._terms.items():
            for sb, cb in other._terms.items():
                phase, prod = sa.multiply(sb)
                out[prod] = out.get(prod, 0j) + ca * cb * phase
        return PauliSum(self._n_qubits, out)

    # ------------------------------------------------------------------
    # dense paths
    # ------------------------------------------------------------------
    def _require_dense_width(self) -> None:
        if self._n_qubits > DENSE_MATRIX_CAP:
            raise ValueError(
                f"dense matrix limited to {DENSE_MATRIX_CAP} qubits, "
                f"got {self._n_qubits}"
            )

    def to_dense(self) -> np.ndarray:
        """Dense matrix in the little-endian basis (qubit q = index bit q).

        Raises:
            ValueError: register wider than :data:`DENSE_MATRIX_CAP`, or
                the ``16 · 4^n``-byte matrix exceeds physical memory.
        """
        self._require_dense_width()
        dim = 1 << self._n_qubits
        _check_dense_memory(16 * dim * dim, "dense matrix")
        idx = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self._terms.items():
            src, d = s.action(dim)
            out[idx, src] += c * d
        return out

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian eigendecomposition ``(eigenvalues, vectors)``.

        Eigenvalues ascend; the vectors are the ``complex128`` columns of a
        unitary.  When no term has an odd number of Y factors, every string
        matrix is real, and with the real coefficients a Hermitian sum
        requires, so is the sum: it is then diagonalized by a real
        symmetric ``eigh``, several times faster than the complex one, and
        the vectors are cast to ``complex128`` once here.  Sums with an
        odd-Y string take the complex ``eigh``.

        Raises:
            ValueError: non-Hermitian sum, register beyond the dense cap,
                or the matrix, its real copy and the vectors together
                exceed physical memory.
        """
        if not self.is_hermitian():
            raise ValueError("eigendecomposition requires a Hermitian sum")
        self._require_dense_width()
        real = all(s.phase.imag == 0 for s in self._terms)
        # the complex matrix and vectors, 16 bytes a cell each, plus the
        # 8-byte real copy on the real path
        cells = 1 << (2 * self._n_qubits)
        _check_dense_memory((40 if real else 32) * cells, "dense eigendecomposition")
        dense = self.to_dense()
        if real:
            # rebinding drops the complex matrix before eigh runs
            dense = np.ascontiguousarray(dense.real)
        vals, vecs = np.linalg.eigh(dense)
        return vals, vecs.astype(np.complex128, copy=False)

    # ------------------------------------------------------------------
    # truncation and grouping
    # ------------------------------------------------------------------
    def truncate(self, threshold: float) -> tuple["PauliSum", float]:
        """Drops terms with ``|coefficient| < threshold``.

        Returns:
            ``(truncated sum, dropped weight)`` where the dropped weight is
            the 1-norm of the removed coefficients.

        Raises:
            ValueError: negative threshold.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        kept: dict[PauliString, complex] = {}
        dropped = 0.0
        for s, c in self._terms.items():
            if abs(c) < threshold:
                dropped += abs(c)
            else:
                kept[s] = c
        return PauliSum(self._n_qubits, kept), dropped

    def group_commuting(
        self, mode: str = "full"
    ) -> tuple[tuple[tuple[PauliString, complex], ...], ...]:
        """Partition into commuting sets by greedy largest-first coloring.

        Vertices are the terms in canonical order; edges join pairs that do
        not commute under ``mode``.  Vertices are colored in descending
        degree (ties broken by canonical term order) with the smallest
        color absent from their neighborhood (Verteletskyi, Yen & Izmaylov,
        J. Chem. Phys. 152, 124114, 2020).

        The masks are held as ``uint64`` arrays of ``W = ceil(n_qubits/64)``
        words per string, and edges come from vectorized symplectic
        (Aaronson & Gottesman, PRA 70, 052328, 2004) or qubitwise tests
        over blocks of :data:`_CLASH_BLOCK` rows.  The
        graph is built twice, once for the degrees and once for the
        coloring: O(n²·W) vectorized bit operations for ``n`` terms, in
        O(block·n) working memory besides the O(n·W) masks.  No adjacency
        matrix or neighbor list is ever stored.

        Returns:
            The sets, each a tuple of ``(PauliString, coeff)`` terms in
            canonical order; every term lies in exactly one set.

        Raises:
            ValueError: unknown ``mode``.
        """
        if mode not in ("full", "qubitwise"):
            raise ValueError(f"unknown commutation mode {mode!r}")
        term_list = self.terms()
        n = len(term_list)
        x, z = _mask_arrays([s for s, _ in term_list], self._n_qubits)
        degree = np.empty(n, dtype=np.int64)
        for rows, clash in _clash_blocks(x, z, np.arange(n), mode):
            degree[rows] = np.count_nonzero(clash, axis=1)
        order = np.lexsort((np.arange(n), -degree))
        # color n marks an uncolored vertex; a vertex of degree d always
        # finds a free color among 0..d, so the argmin stays below n
        color = np.full(n, n, dtype=np.intp)
        for rows, clash in _clash_blocks(x, z, order, mode):
            for v, clash_row in zip(rows, clash):
                used = np.zeros(n + 1, dtype=bool)
                used[color[clash_row]] = True
                color[v] = np.argmin(used)
        n_sets = int(color.max()) + 1 if n else 0
        sets: list[list[tuple[PauliString, complex]]] = [[] for _ in range(n_sets)]
        for term, c in zip(term_list, color.tolist()):
            sets[c].append(term)
        return tuple(tuple(s) for s in sets)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serializes to the Pauli-sum JSON format (lossless round trip)."""
        payload = {
            "n_qubits": self._n_qubits,
            "terms": [
                {"coeff": [c.real, c.imag], "paulis": s.to_label()}
                for s, c in self.terms()
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PauliSum":
        payload = json.loads(text)
        terms = [
            (PauliString.from_label(t["paulis"]), complex(*t["coeff"]))
            for t in payload["terms"]
        ]
        if not all(np.isfinite(c) for _, c in terms):
            raise ValueError("non-finite term coefficient")
        return cls(int(payload["n_qubits"]), terms)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        inner = " + ".join(
            f"({c:.6g})*{s.to_label() or 'I'}" for s, c in self.terms()[:6]
        )
        more = "" if len(self) <= 6 else f" + …({len(self)} terms)"
        return f"PauliSum({self._n_qubits}, {inner}{more})"


def z_signs(indices: np.ndarray | int, z_masks: np.ndarray | int) -> np.ndarray:
    """``(-1)^{|z&b|}`` as ``±1.0`` for basis indices ``b`` against Z masks.

    ``indices`` and ``z_masks`` broadcast against each other, so an
    ``(outcomes, 1)`` column against a row of masks gives the
    (outcomes x masks) table of Z-string eigenvalues.
    """
    return 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and(indices, z_masks)) & 1)


def gf2_reduce(rows: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Fully reduced GF(2) elimination, pivoting on each row's lowest bit.

    Returns ``({pivot bit: reduced row}, dependent)``: the pivots in
    arrival order, each pivot bit set in exactly one reduced row, and the
    indices of the rows that lie in the span of the rows before them.
    """
    pivots: dict[int, int] = {}
    dependent: list[int] = []
    for index, row in enumerate(rows):
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if not row:
            dependent.append(index)
            continue
        col = (row & -row).bit_length() - 1
        for other, prow in pivots.items():
            if (prow >> col) & 1:
                pivots[other] = prow ^ row
        pivots[col] = row
    return pivots, dependent


# ----------------------------------------------------------------------
# the sum product as a function; chem and qcm4 call it by this name
# ----------------------------------------------------------------------
def sum_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product of two sums with like terms combined."""
    return a @ b
