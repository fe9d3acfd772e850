"""Exact algebra over Pauli strings and weighted Pauli sums.

Strings are held in a symplectic bitmask representation: a string is the
pair of integers ``(x_mask, z_mask)`` where bit ``q`` of ``x_mask`` /
``z_mask`` records an X / Z factor on qubit ``q``, and a Y factor sets
both bits.  Products, commutation checks, and dense-matrix actions then
reduce to bit arithmetic.

A sum stays a dict of strings, but its quadratic work runs on arrays of
their masks: ``uint64[N, W]`` words with ``W = ceil(n/64)``
(:func:`_mask_arrays`) or ``(N, n)`` 0/1 bits (:func:`_mask_bits`).
Products of many term pairs (:meth:`PauliSum.__matmul__`), the canonical
order of large sums (:meth:`PauliSum.terms`) and the commutation graph
(:meth:`PauliSum.group_commuting`, one anticommutation word for both
modes) reproduce their loop versions bit for bit; small products and sorts
keep the loops, which cost less there.

The qubit-to-amplitude convention used throughout the package is little
endian: qubit ``q`` is bit ``q`` of the computational-basis index.  With
``P = i^{|x&z|} X^x Z^z``, a string maps ``|b>`` to
``i^{|x&z|} (-1)^{|z&b|} |b^x>`` (Aaronson & Gottesman, PRA 70, 052328,
2004).  This module is the only place that action is computed:
:meth:`PauliString.action` serves the simulator, the dense matrices and
tapering, and :func:`z_signs` Z-basis estimation.  :func:`gf2_reduce`
serves tapering, the dependent-string test of measurement planning and
the symmetry blocks of :meth:`PauliSum.eig`;
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
# (block, n_terms) buffers; at 5,459 terms 8 or 16 rows beat 32 to 128.
_CLASH_BLOCK = 16

# Term pairs per row block of the array product in :meth:`PauliSum.__matmul__`;
# it bounds that product's working memory to a few (block, W) arrays.
_PRODUCT_BLOCK = 8192

# Products with fewer term pairs, and sums with fewer terms in
# :meth:`PauliSum.terms`, keep the Python loop.  The arrays cost some
# 200 µs per call before any pair, and ``jordan_wigner`` makes thousands
# of products of at most 16 pairs and sorts as many small sums.  Measured
# break-even: about 100 pairs for Hamiltonian products, whose pairs share
# few product strings, and about 500 for products of all-distinct strings.
_ARRAY_PRODUCT_MIN = 128

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


def _mask_ints(words: np.ndarray) -> list[int]:
    """The integer masks of ``(N, W)`` words laid out as :func:`_mask_arrays`."""
    masks = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        masks = [m | hi << (64 * w) for m, hi in zip(masks, words[:, w].tolist())]
    return masks


def _mask_bits(
    strings: list[PauliString], n_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """X and Z masks as ``uint8`` 0/1 arrays of shape ``(len(strings), n)``.

    Column ``q`` holds qubit ``q``.
    """
    return tuple(
        np.unpackbits(
            words.astype("<u8").view(np.uint8), axis=1, count=n_qubits,
            bitorder="little",
        )
        for words in _mask_arrays(strings, n_qubits)
    )


def _loop_product(
    a: Mapping[PauliString, complex], b: Mapping[PauliString, complex]
) -> dict[PauliString, complex]:
    """Terms of the product ``a · b``, one term pair at a time."""
    out: dict[PauliString, complex] = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            phase, prod = sa.multiply(sb)
            out[prod] = out.get(prod, 0j) + ca * cb * phase
    return out


def _array_product(
    a: Mapping[PauliString, complex],
    b: Mapping[PauliString, complex],
    n_qubits: int,
) -> dict[PauliString, complex]:
    """:func:`_loop_product` as word-array operations, bit for bit.

    Each block of rows of ``a`` meets all of ``b``, :data:`_PRODUCT_BLOCK`
    pairs at a time.  A pair's product string is the XOR of its masks and
    its phase the exponent of :meth:`PauliString.multiply`, from
    ``np.bitwise_count``.  Pass 1 collects the distinct product strings
    into one sorted table with the index of the first pair that makes
    each; a string's key is its (x, z) words viewed as one ``np.void``,
    or on at most 32 qubits the integer ``x << n | z``.  Pass 2
    finds every pair's table slot by ``np.searchsorted`` and adds
    ``ca * cb * phase``, in the float operations of Python's complex
    product, with ``np.add.at``: sequentially from zero, in pair order,
    as the loop does.  The strings come out in order of first appearance,
    the loop's dict order.
    """
    xa, za = _mask_arrays(list(a), n_qubits)
    xb, zb = _mask_arrays(list(b), n_qubits)
    # an integer key sorts and searches about 3x faster than a void one
    packed = 2 * n_qubits <= 64
    key = np.uint64 if packed else np.dtype((np.void, 16 * xa.shape[1]))
    rows = max(1, _PRODUCT_BLOCK // len(b))
    starts = range(0, len(a), rows)

    def products(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = xa[start : start + rows, None] ^ xb
        z = za[start : start + rows, None] ^ zb
        if packed:
            keys = x[..., 0] << np.uint64(n_qubits) | z[..., 0]
        else:
            keys = np.concatenate((x, z), axis=2).view(key)
        return x, z, keys.ravel()

    # pass 1; block tables wait until they hold as many keys as the
    # merged table, so each merge at least doubles what it has seen
    table, first = np.empty(0, key), np.empty(0, np.intp)
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0
    for start in starts:
        keys, index = np.unique(products(start)[2], return_index=True)
        pending.append((keys, index + start * len(b)))
        held += len(keys)
        if held >= len(table) or start == starts[-1]:
            # earlier pairs come first, so each key keeps its first pair
            table, pick = np.unique(
                np.concatenate([table, *(k for k, _ in pending)]),
                return_index=True,
            )
            first = np.concatenate([first, *(i for _, i in pending)])[pick]
            pending, held = [], 0

    # pass 2
    ca = np.array(list(a.values()), dtype=complex)
    cb = np.array(list(b.values()), dtype=complex)
    ya = np.bitwise_count(xa & za).sum(axis=1, dtype=np.int64)
    yb = np.bitwise_count(xb & zb).sum(axis=1, dtype=np.int64)
    phase_re = np.array([p.real for p in _PHASES])
    phase_im = np.array([p.imag for p in _PHASES])
    total_re, total_im = np.zeros(len(table)), np.zeros(len(table))
    for start in starts:
        x, z, keys = products(start)
        block = slice(start, start + rows)
        g = (
            ya[block, None]
            + yb
            + 2 * np.bitwise_count(za[block, None] & xb).sum(axis=2, dtype=np.int64)
            - np.bitwise_count(x & z).sum(axis=2, dtype=np.int64)
        ) & 3
        are, aim = ca.real[block, None], ca.imag[block, None]
        pre = are * cb.real - aim * cb.imag
        pim = are * cb.imag + aim * cb.real
        fre, fim = phase_re[g], phase_im[g]
        slot = np.searchsorted(table, keys)
        np.add.at(total_re, slot, (pre * fre - pim * fim).ravel())
        np.add.at(total_im, slot, (pre * fim + pim * fre).ravel())

    # each string is the product of its first pair
    order = np.argsort(first)
    row, col = np.divmod(first[order], len(b))
    return {
        PauliString(x, z): complex(re, im)
        for x, z, re, im in zip(
            _mask_ints(xa[row] ^ xb[col]),
            _mask_ints(za[row] ^ zb[col]),
            total_re[order].tolist(),
            total_im[order].tolist(),
        )
    }


def _canonical_order(bx: np.ndarray, bz: np.ndarray) -> np.ndarray:
    """Indices that sort strings by :meth:`PauliString.sort_key`.

    ``bx`` and ``bz`` are the strings' bits from :func:`_mask_bits`.  Each
    present factor gets the code ``3·q + rank + 1`` (X, Y, Z ranking 0, 1,
    2); a string's codes are packed to the left in qubit order and padded
    with 0, so one ``np.lexsort`` over the code columns compares rows as
    ``sort_key`` compares its tuples.
    """
    present = bx | bz
    codes = present * (3 * np.arange(bx.shape[1]) + 1) + bz * (2 - bx)
    packed = np.take_along_axis(
        codes, np.argsort(present == 0, axis=1, kind="stable"), axis=1
    )
    width = int(present.sum(axis=1).max())
    return np.lexsort(packed[:, :width].T[::-1])


def _clash_blocks(
    x: np.ndarray, z: np.ndarray, rows: np.ndarray, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Packed rows of the non-commutation graph, :data:`_CLASH_BLOCK` at a time.

    Yields ``(block_rows, clash)`` for consecutive slices of ``rows``, where
    bit ``j`` of ``clash[i]``, in ``np.packbits`` order, is set iff string
    ``block_rows[i]`` fails to commute with string ``j`` under ``mode``.
    The anticommutation words of a pair's mask words fold by XOR (``full``,
    whose clash is an odd popcount) or OR (``qubitwise``, any bit set).
    """
    n, n_words = x.shape
    fold = np.bitwise_xor if mode == "full" else np.bitwise_or
    acc, word, tmp = np.empty((3, min(_CLASH_BLOCK, n), n), dtype=np.uint64)
    count = np.empty(acc.shape, dtype=np.uint8)
    for start in range(0, len(rows), _CLASH_BLOCK):
        block_rows = rows[start : start + _CLASH_BLOCK]
        a, wd, t, c = (b[: len(block_rows)] for b in (acc, word, tmp, count))
        for w in range(n_words):
            # the first word goes straight into the accumulator
            out = wd if w else a
            np.bitwise_and(x[block_rows, w, None], z[:, w], out=out)
            out ^= np.bitwise_and(z[block_rows, w, None], x[:, w], out=t)
            if w:
                fold(a, out, out=a)
        np.bitwise_count(a, out=c)
        if mode == "full":
            c &= 1
        yield block_rows, np.packbits(c, axis=1)


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
        """Terms in canonical order (identity first).

        The order is :meth:`PauliString.sort_key`'s.  Sums of at least
        :data:`_ARRAY_PRODUCT_MIN` terms get it from one ``np.lexsort``
        over factor codes (see :func:`_canonical_order`); smaller ones sort
        by the key itself.
        """
        items = list(self._terms.items())
        if len(items) < _ARRAY_PRODUCT_MIN:
            return sorted(items, key=lambda t: t[0].sort_key())
        bx, bz = _mask_bits([s for s, _ in items], self._n_qubits)
        return [items[i] for i in _canonical_order(bx, bz).tolist()]

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
        """Operator product with like terms combined.

        Coefficients add in term-pair order, so every coefficient and the
        term order are those of the pair loop.  Products of at least
        :data:`_ARRAY_PRODUCT_MIN` pairs run as blocked word-array
        operations (:func:`_array_product`), smaller ones as the loop.
        """
        self._require_same_width(other)
        if len(self._terms) * len(other._terms) >= _ARRAY_PRODUCT_MIN:
            out = _array_product(self._terms, other._terms, self._n_qubits)
        else:
            out = _loop_product(self._terms, other._terms)
        # every coefficient is already 0j + c (a sum from +0.0 never rounds
        # to -0.0), so only the purge of __init__ is left
        return self._adopt({s: c for s, c in out.items() if abs(c) > PURGE_TOL})

    def _adopt(self, terms: dict[PauliString, complex]) -> "PauliSum":
        """A sum on this register over ``terms``, already as ``__init__`` makes them."""
        out = object.__new__(PauliSum)
        out._n_qubits, out._terms = self._n_qubits, terms
        return out

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
        """Hermitian eigendecomposition ``(eigenvalues, vectors)``, block by block.

        Eigenvalues ascend (a stable sort); the vectors are the ``complex128``
        columns of a unitary.  A string maps ``|b>`` to a multiple of
        ``|b^x>``, so the cosets of the span of the terms' x masks (rank r,
        :func:`gf2_reduce`) are closed under the sum: :meth:`to_dense` leaves
        exact zeros between them.  Each index is labelled by its coset (its
        pivot bits cleared), and the 2^(n−r) blocks of 2^r go through one
        batched ``eigh``, the real symmetric one when no term has an odd
        number of Y factors: every string matrix is then real, and so are
        the coefficients of a Hermitian sum.

        Raises:
            ValueError: non-Hermitian sum, register beyond the dense cap,
                or the matrix or the vectors beside the blocks exceed
                physical memory.
        """
        if not self.is_hermitian():
            raise ValueError("eigendecomposition requires a Hermitian sum")
        self._require_dense_width()
        real = all(s.phase.imag == 0 for s in self._terms)
        pivots, _ = gf2_reduce(s.x_mask for s in self._terms)
        dim, block = 1 << self._n_qubits, 1 << len(pivots)
        # the complex matrix, then the complex vectors, beside the blocks
        need = dim * (16 * dim + (8 if real else 16) * block)
        _check_dense_memory(need, "dense eigendecomposition")
        rep = np.arange(dim)
        for col, prow in pivots.items():
            rep ^= ((rep >> col) & 1) * prow
        rows = np.argsort(rep, kind="stable").reshape(-1, block)
        blocks = self.to_dense()
        # rebinding drops the full matrix before eigh runs
        blocks = (blocks.real if real else blocks)[rows[:, :, None], rows[:, None]]
        vals, blocks = np.linalg.eigh(blocks)
        order = np.argsort(vals, axis=None, kind="stable")
        vecs = np.zeros((dim, dim), dtype=np.complex128)
        cols = np.empty_like(order)
        cols[order] = np.arange(dim)  # the inverse permutation
        vecs[rows[:, :, None], cols.reshape(rows.shape)[:, None]] = blocks
        return vals.ravel()[order], vecs

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
        return self._adopt(kept), dropped

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
        words per string.  Bit ``q`` of the anticommutation word
        ``(x_a & z_b) ^ (z_a & x_b)`` is set iff both strings act on qubit
        ``q`` along different axes; a pair clashes when its popcount is odd
        (``full``; Aaronson & Gottesman, PRA 70, 052328, 2004) or nonzero
        (``qubitwise``).  Rows are tested :data:`_CLASH_BLOCK` at a time and
        packed eight to a byte, and the graph is built twice (degrees, then
        coloring): O(n²·W) bit operations in O(block·n) working memory.  A
        kept graph would take n²/8 bytes: 3.7 MB for the 5,459 strings of
        H…H⁴ on the 8-qubit fixture, 2.05 GB for the 128,186 of a random
        10-qubit one.  The coloring keeps a (colors × n) table, packed the
        same way, of the colors each vertex's colored neighbours hold,
        doubled when a vertex finds every color taken; a vertex takes the
        first free entry of its column and ORs its clash row into that color.

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
            degree[rows] = np.bitwise_count(clash).sum(axis=1)
        order = np.lexsort((np.arange(n), -degree))
        color = np.empty(n, dtype=np.intp)
        # bit u of forbidden[c], in np.packbits order: some colored
        # neighbour of u has color c
        forbidden = np.zeros((1, -(-n // 8)), dtype=np.uint8)
        for rows, clash in _clash_blocks(x, z, order, mode):
            for v, clash_row in zip(rows, clash):
                taken = forbidden[:, v >> 3] & (0x80 >> (v & 7))
                c = int(np.argmin(taken))
                if taken[c]:
                    c = len(forbidden)
                    forbidden = np.concatenate((forbidden, np.zeros_like(forbidden)))
                color[v] = c
                forbidden[c] |= clash_row
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
        if type(payload["n_qubits"]) is not int:
            raise ValueError("n_qubits must be an integer")
        return cls(payload["n_qubits"], terms)

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
