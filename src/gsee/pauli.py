"""Exact algebra over Pauli strings and weighted Pauli sums.

Strings are held in a symplectic bitmask representation: a string is the
pair of integers ``(x_mask, z_mask)`` where bit ``q`` of ``x_mask`` /
``z_mask`` records an X / Z factor on qubit ``q``, and a Y factor sets
both bits.  Products, commutation checks, and dense-matrix actions then
reduce to bit arithmetic.

A sum stays a dict of strings, but its bulk work runs on arrays of their
masks: ``uint64[N, W]`` words with ``W = ceil(n/64)`` (:func:`_mask_arrays`).
Products (:meth:`PauliSum.__matmul__` and the row products of
:meth:`PauliSum.from_products`), the canonical order
(:meth:`PauliSum.terms`) and the commuting sets
(:meth:`PauliSum.group_commuting`, from a table over the active qubits'
factors and no pair graph) reproduce their loop versions bit for bit.

The qubit-to-amplitude convention used throughout the package is little
endian: qubit ``q`` is bit ``q`` of the computational-basis index.  With
``P = i^{|x&z|} X^x Z^z``, a string maps ``|b>`` to
``i^{|x&z|} (-1)^{|z&b|} |b^x>`` (Aaronson & Gottesman, PRA 70, 052328,
2004).  This module is the only place that action is computed:
:meth:`PauliString.action` serves the simulator, the dense matrices and
tapering, and :func:`z_signs` Z-basis estimation.  :func:`gf2_reduce`
serves tapering, the dependent-string test of measurement planning and
the symmetry blocks of :meth:`PauliSum.blocks`;
``qcm4._diagonalizing_ops`` keeps its own column-by-column x-block
reduction, because those pivots choose the Clifford gates it emits and
the qcm4 shot records depend on them.

No width cap: :meth:`PauliSum.to_dense`, :meth:`PauliSum.blocks`,
:meth:`PauliSum.from_products` and :meth:`PauliSum.group_commuting` refuse
only a peak estimate beyond physical memory (:func:`check_memory`), before
their large arrays exist.

Example:
    >>> x = PauliSum(1, {PauliString.from_label("X0"): 1.0})
    >>> y = PauliSum(1, {PauliString.from_label("Y0"): 1.0})
    >>> [(s.to_label(), c) for s, c in (x @ y).terms()]
    [('Z0', 1j)]
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "PauliString",
    "PauliSum",
    "gf2_reduce",
    "sum_multiply",
    "z_signs",
    "PURGE_TOL",
    "check_memory",
    "MemoryRefusal",
]

# Coefficients at or below this magnitude are purged after arithmetic;
# double-precision cancellation residue lands well below it.
PURGE_TOL = 1e-14

# Strings tested against every color per array step of the coloring in
# :meth:`PauliSum.group_commuting`; at 5,459 terms 32 to 128 do about equally.
_COLOR_BLOCK = 64
_X_BITS = 0x5555_5555_5555_5555  # the x bits of a code (:func:`_greedy_colors`)

# Term pairs per row block of the array product in :meth:`PauliSum.__matmul__`;
# it bounds that product's working memory to a few (block, W) arrays.
_PRODUCT_BLOCK = 8192

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

    def __post_init__(self) -> None:
        for name, mask in (("x_mask", self.x_mask), ("z_mask", self.z_mask)):
            if not isinstance(mask, (int, np.integer)) or mask < 0:
                raise ValueError(f"{name} must be a non-negative integer, not {mask!r}")
            if type(mask) is not int:  # a numpy integer, say
                object.__setattr__(self, name, int(mask))

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
        bits = ((q, (self.x_mask >> q) & 1, (self.z_mask >> q) & 1)
                for q in range(self.min_width))
        return {q: _AXIS_FROM_BITS[bx, bz] for q, bx, bz in bits if bx or bz}

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
    def min_width(self) -> int:
        """Smallest register width containing the support."""
        return (self.x_mask | self.z_mask).bit_length()

    def to_label(self) -> str:
        return " ".join(f"{axis}{q}" for q, axis in self.support.items())

    def sort_key(self) -> tuple:
        """Canonical ordering key: lexicographic by (qubit index, X<Y<Z)."""
        return tuple((q, _AXIS_RANK[a]) for q, a in self.support.items())

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
    x, z = np.empty((2, len(strings), n_words), dtype=np.uint64)
    for w in range(n_words):
        x[:, w] = [(s.x_mask >> 64 * w) & word for s in strings]
        z[:, w] = [(s.z_mask >> 64 * w) & word for s in strings]
    return x, z


def _mask_ints(words: np.ndarray) -> list[int]:
    """The integer masks of ``(N, W)`` words laid out as :func:`_mask_arrays`."""
    masks = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        masks = [m | hi << (64 * w) for m, hi in zip(masks, words[:, w].tolist())]
    return masks


def _term_arrays(
    terms: Iterable[tuple[PauliString, complex]], n_qubits: int
) -> list[np.ndarray]:
    """Terms as the ``(x, z, re, im)`` arrays of :func:`_multiply_terms`."""
    items = list(terms)
    c = np.array([c for _, c in items], dtype=complex)
    return [*_mask_arrays([s for s, _ in items], n_qubits), c.real, c.imag]


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of ``(..., W)`` mask words, summed over the words."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _complex_product(are, aim, bre, bim) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` in the float operations of Python's complex product."""
    return are * bre - aim * bim, are * bim + aim * bre


def _multiply_terms(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Products of terms held as ``(x, z, re, im)`` arrays, broadcast.

    ``x`` and ``z`` are ``(..., W)`` mask words and ``re + i·im`` the
    coefficient.  Per qubit, with P(x, z) = i^{xz} X^x Z^z, P(a) P(b) =
    i^{xa·za + xb·zb + 2·za·xb − xc·zc} P(c), and each product
    ``ca * cb * phase`` is the pair loop's bit for bit.
    """
    (xa, za, are, aim), (xb, zb, bre, bim) = a, b
    x, z = xa ^ xb, za ^ zb
    g = _popcount(xa & za) + _popcount(xb & zb) + 2 * _popcount(za & xb)
    phase = np.asarray(_PHASES)[(g - _popcount(x & z)) & 3]
    pre, pim = _complex_product(are, aim, bre, bim)
    return [x, z, *_complex_product(pre, pim, phase.real, phase.imag)]


def _string_keys(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """One sortable key per string of ``(..., W)`` mask words.

    On at most 32 qubits it is the integer ``x << n | z``, which sorts and
    searches about 3x faster than the ``np.void`` view of the words.
    """
    if 2 * n_qubits <= 64:
        return x[..., 0] << np.uint64(n_qubits) | z[..., 0]
    void = np.dtype((np.void, 16 * x.shape[-1]))
    return np.concatenate((x, z), axis=-1).view(void)[..., 0]


def _ordered_sums(
    blocks: Sequence,
    keys_of: Callable = lambda block: block[0],
    terms_of: Callable = lambda block: block,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums of values over equal keys, added as a dict loop adds them.

    ``keys_of(block)`` gives a block's keys and ``terms_of(block)`` its
    ``(keys, re, im)``; by default a block is that triple.  Pass 1 builds
    one sorted table of the distinct keys with the index of each one's
    first element; pass 2 finds each element's slot by ``np.searchsorted``
    and adds its value with ``np.add.at``, from zero in element order.
    Returns ``(first, re, im)`` per key, in order of first appearance.
    """
    table, first, pending, offset = np.zeros(0), np.zeros(0, np.intp), [], 0
    for i, block in enumerate(blocks):
        keys = keys_of(block)
        if i == 0:
            table = keys.ravel()[:0]  # of the keys' dtype
        unique, index = np.unique(keys, return_index=True)
        pending.append((unique, index + offset))
        offset += keys.size
        # pending tables wait until they hold as many keys as the merged
        # table, so each merge at least doubles what it has seen
        if sum(len(k) for k, _ in pending) >= len(table) or i == len(blocks) - 1:
            # earlier elements come first, so each key keeps its first one
            table, pick = np.unique(
                np.concatenate([table, *(k for k, _ in pending)]), return_index=True
            )
            first = np.concatenate([first, *(f for _, f in pending)])[pick]
            pending = []
    total = np.zeros((2, len(table)))
    for block in blocks:
        keys, re, im = terms_of(block)
        slot = np.searchsorted(table, keys)
        np.add.at(total[0], slot, re)
        np.add.at(total[1], slot, im)
    order = np.argsort(first)
    return first[order], total[0, order], total[1, order]


def _purged_terms(x, z, re, im) -> dict[PauliString, complex]:
    """Strings of words ``x``, ``z`` with coefficients ``re + i·im``, purged.

    Each coefficient is already the sum ``0j + c`` that ``PauliSum`` forms
    (a sum from +0.0 never rounds to -0.0), so only the purge is left.
    """
    terms = zip(_mask_ints(x), _mask_ints(z), re.tolist(), im.tolist())
    return {
        PauliString(xm, zm): c
        for xm, zm, r, i in terms
        if abs(c := complex(r, i)) > PURGE_TOL
    }


def _bits(strings: list[PauliString], n_qubits: int) -> list[np.ndarray]:
    """The strings' X and Z bits as ``(N, n)`` 0/1 arrays, qubit 0 first."""
    return [
        np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                      count=n_qubits, bitorder="little")
        for words in _mask_arrays(strings, n_qubits)
    ]


def _canonical_order(strings: list[PauliString], n_qubits: int) -> np.ndarray:
    """Indices that sort ``strings`` by :meth:`PauliString.sort_key`.

    Qubit ``q`` of a string gets the digit 1, 2 or 3 for X, Y or Z, 4 for
    an identity below the string's last factor and 0 past it.  One
    ``np.lexsort`` over the digits, qubit 0 first, then compares strings
    as ``sort_key`` compares its tuples: a prefix sorts first.
    """
    bx, bz = _bits(strings, n_qubits)
    present = bx | bz
    before_last = np.cumsum(present[:, ::-1], axis=1)[:, ::-1] > 0
    digits = np.where(present, present + bz * (2 - bx), 4 * before_last)
    if not digits.shape[1]:
        return np.arange(len(digits))  # no qubits, so at most the identity
    return np.lexsort(digits.T[::-1])


def _greedy_colors(codes: np.ndarray, k: int, full: bool) -> list[int]:
    """The smallest color each string fits, strings taken in the given order.

    A code interleaves a string's x and z bits on the k active qubits (bit
    2q is x).  A ``full`` color keeps a GF(2) basis of its members, rows
    keyed by their lowest bit; a ``qubitwise`` one its axis word, the OR of
    its members.  Blocks of strings are tested against every color at once;
    as constraints only grow, a string then rechecks only what its color
    gained earlier in the block.
    """

    def clashes(u, row):  # elementwise, on ints or broadcast arrays
        if full:  # rows hold x and z swapped: <u, row> is the parity of u & row
            popcount = int.bit_count if isinstance(u, int) else np.bitwise_count
            return popcount(u & row) & 1
        d = u ^ row
        return (d | d >> 1) & (u | u >> 1) & (row | row >> 1) & _X_BITS

    held = np.zeros((1, k if full else 1), dtype=np.uint64)
    bases: list[dict[int, int]] = []  # one per color; only full mode fills them
    colors: list[int] = []
    for start in range(0, len(codes), _COLOR_BLOCK):
        block, known = codes[start : start + _COLOR_BLOCK], len(bases)
        taken = clashes(block[:, None, None], held[None, :known]).any(axis=2)
        # a last free column: colors born in the block start out free
        taken = np.c_[taken, np.zeros(len(block), dtype=bool)]
        gained: dict[int, list[int]] = {}
        for i, (u, c) in enumerate(zip(block.tolist(), taken.argmin(axis=1).tolist())):
            while c in gained and any(clashes(u, row) for row in gained[c]):
                c += 1 + int(taken[i, c + 1 :].argmin()) if c < known else 1
            if c == len(bases):
                bases.append({})
                if len(bases) > len(held):
                    held = np.concatenate((held, np.zeros_like(held)))
            colors.append(c)
            basis = bases[c]
            if not full:
                word = int(held[c, 0])
                if u | word != word:
                    held[c, 0] = u | word
                    gained[c] = [u | word]
            elif len(basis) < k:  # at rank k every commuting string is in the span
                while u and (row := basis.get(u & -u)) is not None:
                    u ^= row
                if u:
                    held[c, len(basis)] = (u & _X_BITS) << 1 | (u >> 1) & _X_BITS
                    gained.setdefault(c, []).append(int(held[c, len(basis)]))
                    basis[u & -u] = u
    return colors


def _physical_memory() -> int | None:
    """Physical memory in bytes, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


class MemoryRefusal(ValueError):
    """:func:`check_memory`'s refusal of an allocation beyond physical memory."""


def check_memory(n_bytes: int, what: str) -> None:
    """Raises before a dense allocation larger than physical memory.

    Raises:
        MemoryRefusal: ``n_bytes`` exceeds the machine's physical memory.
    """
    available = _physical_memory()
    if available is not None and n_bytes > available:
        raise MemoryRefusal(
            f"{what} would take about {n_bytes:,} bytes, more than the "
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

        The order is :meth:`PauliString.sort_key`'s, from one
        ``np.lexsort`` over factor codes (see :func:`_canonical_order`).
        """
        items = list(self._terms.items())
        order = _canonical_order([s for s, _ in items], self._n_qubits)
        return [items[i] for i in order.tolist()]

    def items(self) -> Iterable[tuple[PauliString, complex]]:
        """The terms in the order they were formed, without :meth:`terms`' sort."""
        return self._terms.items()

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
        """Operator product with like terms combined, bit for bit the pair loop's.

        Blocks of :data:`_PRODUCT_BLOCK` term pairs (:func:`_multiply_terms`)
        add their coefficients in pair order (:func:`_ordered_sums`), and the
        strings come out in order of first appearance.
        """
        self._require_same_width(other)
        n = self._n_qubits
        a, b = (_term_arrays(s._terms.items(), n) for s in (self, other))
        n_b = max(1, len(other._terms))
        rows = max(1, _PRODUCT_BLOCK // n_b)

        def keys_of(start: int) -> np.ndarray:
            block = slice(start, start + rows)
            return _string_keys(a[0][block, None] ^ b[0], a[1][block, None] ^ b[1], n)

        def terms_of(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            block = slice(start, start + rows)
            x, z, re, im = _multiply_terms([v[block, None] for v in a], b)
            return _string_keys(x, z, n), re, im

        first, re, im = _ordered_sums(
            range(0, len(self._terms), rows), keys_of, terms_of
        )
        # each string is the product of its first pair
        row, col = np.divmod(first, n_b)
        return self._adopt(
            _purged_terms(a[0][row] ^ b[0][col], a[1][row] ^ b[1][col], re, im)
        )

    @classmethod
    def from_products(
        cls,
        n_qubits: int,
        factors: Sequence["PauliSum"],
        rows: np.ndarray,
        weights: np.ndarray,
    ) -> "PauliSum":
        """``Σₖ weights[k] · Π_f factors[rows[k, f]]`` in one array pass.

        ``rows`` holds K rows of indices into ``factors``, in product order.
        Every row starts from the identity and is multiplied by its factors
        one at a time, all rows at once: after each factor a row's term
        pairs combine per string, in pair order, and the terms ``PauliSum``
        purges are dropped, as a row-by-row ``@`` leaves them.  Weighted
        rows then add into each string from zero, in row order, and the sum
        is purged once, strings in first-appearance order.  Each coefficient
        is that of a row-by-row ``@`` and the constructor, bit for bit.

        Raises:
            ValueError: a factor on another register width, or K · T^F
                chains (T terms in the longest factor) of ``64 · W + 96``
                bytes (W mask words; the picked terms, phases and sorts of
                the product included) exceed physical memory.  A row holds
                at most T^F terms at any factor, so this bounds the peak.
        """
        if any(f.n_qubits != n_qubits for f in factors):
            raise ValueError(f"every factor must act on {n_qubits} qubits")
        rows, weights = np.asarray(rows, np.intp), np.asarray(weights, complex)
        longest, pad = max([1, *map(len, factors)]), (PauliString(), 0j)
        n_chains = len(rows) * longest ** rows.shape[1]
        n_words = max(1, -(-n_qubits // 64))
        check_memory(n_chains * (64 * n_words + 96), f"{n_chains:,} product chains")
        # factors padded to T terms; the padding pairs are dropped unread
        padded = [[*f._terms.items(), *[pad] * (longest - len(f))] for f in factors]
        table = [v.reshape((len(factors), longest) + v.shape[1:])
                 for v in _term_arrays(itertools.chain(*padded), n_qubits)]
        sizes = np.array([len(f) for f in factors], dtype=np.intp)
        # each row's terms, flat and row by row, from the identity
        row = np.arange(len(rows))
        terms = _term_arrays([(PauliString(), 1 + 0j)] * len(rows), n_qubits)
        for picks in rows.T:
            pick = picks[row]
            product = _multiply_terms(
                [v[:, None] for v in terms], [v[pick] for v in table]
            )
            real = np.arange(longest) < sizes[pick][:, None]
            x, z, re, im = (v[real] for v in product)
            row = np.broadcast_to(row[:, None], real.shape)[real]
            del product, terms  # the padded grid is not held through the sums
            strings, string = np.unique(_string_keys(x, z, n_qubits), return_inverse=True)
            first, re, im = _ordered_sums([(row * len(strings) + string, re, im)])
            kept = np.hypot(re, im) > PURGE_TOL
            first, row = first[kept], row[first[kept]]
            terms = [x[first], z[first], re[kept], im[kept]]
        x, z, re, im = terms
        _, string = np.unique(_string_keys(x, z, n_qubits), return_inverse=True)
        w = weights[row]
        # the weighted rows add into each string in row order
        first, re, im = _ordered_sums(
            [(string, *_complex_product(w.real, w.imag, re, im))]
        )
        return cls(n_qubits)._adopt(_purged_terms(x[first], z[first], re, im))

    def _adopt(self, terms: dict[PauliString, complex]) -> "PauliSum":
        """A sum on this register over ``terms``, already as ``__init__`` makes them."""
        out = object.__new__(PauliSum)
        out._n_qubits, out._terms = self._n_qubits, terms
        return out

    # ------------------------------------------------------------------
    # dense paths
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Dense matrix in the little-endian basis (qubit q = index bit q).

        Raises:
            ValueError: the ``16 · 4^n``-byte matrix and 96 bytes an
                amplitude, for a term's index, action and product arrays,
                exceed physical memory.
        """
        dim = 1 << self._n_qubits
        check_memory(16 * dim * dim + 96 * dim, "dense matrix")
        idx = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self._terms.items():
            src, d = s.action(dim)
            out[idx, src] += c * d
        return out

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetry blocks ``(rows, mats)``, built from the strings.

        A string maps ``|b>`` to a multiple of ``|b^x>``, so the cosets of
        the span of the terms' x masks (rank r, :func:`gf2_reduce`) are
        closed under the sum.  Row k of ``rows`` holds one coset's 2^r
        indices, ascending, the cosets ordered by their indices with the
        pivot bits cleared, and ``mats[k][i, j] = <rows[k, i]|H|rows[k, j]>``,
        real when no term has an odd number of Y factors (every string
        matrix is then real, and so is a Hermitian sum).  Strings sharing
        an x mask add from zero in term order, so each entry is the float
        sum of :meth:`to_dense`.

        Raises:
            ValueError: non-Hermitian sum, or the blocks and the vectors an
                ``eigh`` returns beside them (``2 · (8|16) · 2^n · 2^r``
                bytes) and the 2^n-long index arrays (160 bytes an index)
                exceed physical memory.
        """
        if not self.is_hermitian():
            raise ValueError("symmetry blocks require a Hermitian sum")
        real = all(s.phase.imag == 0 for s in self._terms)
        pivots, _ = gf2_reduce(s.x_mask for s in self._terms)
        dim, block = 1 << self._n_qubits, 1 << len(pivots)
        check_memory((2 * (8 if real else 16) * block + 160) * dim, "symmetry blocks")
        rep = idx = np.arange(dim)
        for col, prow in pivots.items():
            rep = rep ^ ((rep >> col) & 1) * prow
        order = np.argsort(rep, kind="stable")
        pos = np.argsort(order)  # index b is cell pos[b] of the flat rows
        mats = np.zeros((dim // block, block, block), dtype=float if real else complex)
        # the sort is stable, so each x mask keeps its terms in order
        by_x = sorted(self._terms.items(), key=lambda t: t[0].x_mask)
        for x, terms in itertools.groupby(by_x, lambda t: t[0].x_mask):
            total = np.zeros(dim, dtype=complex)
            for s, c in terms:
                total += c * s.action(dim)[1]
            # row b, column b^x of b's block
            cells = block * pos + pos[idx ^ x] % block
            mats.reshape(-1)[cells] = total.real if real else total
        return order.reshape(-1, block), mats

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
        if threshold == 0:
            return self, 0.0
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
        J. Chem. Phys. 152, 124114, 2020), by :func:`_greedy_colors`.

        No pair is tested.  A 4^k table marks each string's digits x + 2z
        on the k active qubits.  Its transform F, qubit by qubit with the
        4 x 4 kernel of one-qubit commutation, ±1 (``full``, Aaronson &
        Gottesman, PRA 70, 052328, 2004) or 1/0 (``qubitwise``), gives
        each degree as (N − F)/2 or N − F at the string's digits.

        Returns:
            The sets, each a tuple of ``(PauliString, coeff)`` terms in
            canonical order; every term lies in exactly one set.

        Raises:
            ValueError: unknown ``mode``, or the table and its transform
                (``16 · 4^k`` bytes) and 512 bytes a term exceed physical
                memory: sums on more than about 13 qubits, which no run
                path reaches (``qcm4``'s moments stop near 10).
        """
        if mode not in ("full", "qubitwise"):
            raise ValueError(f"unknown commutation mode {mode!r}")
        term_list = self.terms()
        n = len(term_list)
        bx, bz = _bits([s for s, _ in term_list], self._n_qubits)
        active = np.flatnonzero((bx | bz).any(axis=0))
        k = len(active)
        check_memory(16 * 4**k + 512 * n, f"the commutation table of {k} qubits")
        digits = (bx[:, active] | bz[:, active] << 1).astype(np.uint64)
        codes = (digits << np.arange(0, 2 * k, 2, dtype=np.uint64)).sum(1, np.uint64)
        table = np.zeros(4**k, dtype=np.int64)
        table[codes.astype(np.intp)] = 1
        # 1 where two one-qubit factors commute, by the digit (I, X, Z, Y)
        kernel = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        if mode == "full":
            kernel = 2 * kernel - 1
        for q in range(k):
            table = np.matmul(kernel, table.reshape(-1, 4, 4**q)).reshape(-1)
        f = table[codes.astype(np.intp)]
        del digits, table  # the coloring runs without them
        degree = n - f if mode == "qubitwise" else (n - f) // 2
        order = np.lexsort((np.arange(n), -degree))
        color = np.empty(n, dtype=np.intp)
        color[order] = _greedy_colors(codes[order], k, mode == "full")
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
# the sum product as a function; qcm4's moments and chem's tapering call it
# by this name, which the benchmark's tracer counts
# ----------------------------------------------------------------------
def sum_multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a @ b``: the operator product with like terms combined."""
    return a @ b
