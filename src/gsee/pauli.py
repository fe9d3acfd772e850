"""Exact algebra over Pauli strings and weighted Pauli sums.

Strings are held in a symplectic bitmask representation: a string is the
pair of integers ``(x_mask, z_mask)`` where bit ``q`` of ``x_mask`` /
``z_mask`` records an X / Z factor on qubit ``q``, and a Y factor sets
both bits.  Products, commutation checks, and dense-matrix actions then
reduce to bit arithmetic.

A sum stays a dict of strings, but its bulk work runs on arrays of their
masks: ``uint64[N, W]`` words with ``W = ceil(n/64)`` (:func:`_mask_arrays`).
Products (``@`` and :meth:`PauliSum.from_products`, one blocked step
:func:`_product_step`), the canonical order (:meth:`PauliSum.terms`) and
the commuting sets (:meth:`PauliSum.group_commuting`, from a table over
the active qubits' factors and no pair graph) reproduce their loop
versions bit for bit.

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

import json
import math
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
_X_BITS = 0x5555_5555_5555_5555  # even bits: a code's x bits, an index's α qubits

# Term signs that :func:`_x_sums` forms at once, per basis index; it
# bounds their arrays by the index arrays of :meth:`PauliSum.blocks`
_SIGNS_PER_INDEX = 8

# Term pairs per block of :func:`_product_step`, behind both products; it
# bounds a product's working memory to a few (block, W) arrays.
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


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of ``(..., W)`` mask words, summed over the words."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


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
    # ca * cb times the phase, by the float operations of Python's complex product
    pre, pim = are * bre - aim * bim, are * bim + aim * bre
    pr, pi = phase.real, phase.imag
    return [x, z, pre * pr - pim * pi, pre * pi + pim * pr]


def _keys(row, x, z, n_qubits: int, top: int) -> np.ndarray:
    """One sortable key per (row, string of ``(..., W)`` mask words ``x``, ``z``).

    Rows run from 0 to ``top``.  While their bits and 2n fit in 64, the key
    is the integer ``row << 2n | x << n | z``, which sorts and searches
    about 3x faster than the ``np.void`` view of the words.
    """
    row = row.astype(np.uint64)
    if 2 * n_qubits + top.bit_length() <= 64:
        row <<= np.uint64(2 * n_qubits)
        return row | x[..., 0] << np.uint64(n_qubits) | z[..., 0]
    words = np.concatenate((row[..., None], x, z), axis=-1)
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _ordered_sums(
    blocks: Sequence, keys_of: Callable, terms_of: Callable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums of values over equal keys, added as a dict loop adds them.

    ``keys_of(block)`` gives a block's keys and ``terms_of(block)`` its
    ``(keys, re, im)``.  Pass 1 builds one sorted table of the distinct keys
    with the index of each one's first element; pass 2 finds each element's
    slot by ``np.searchsorted`` and adds its value with ``np.add.at``, from
    zero in element order.  Returns ``(first, re, im)`` per key, in order
    of first appearance.
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


def _term_table(groups: Sequence[Mapping], n_qubits: int) -> tuple[list, np.ndarray]:
    """Term groups as ``(x, z, re, im)`` arrays ``(G, T, ...)``, and their sizes.

    Identities of coefficient 0 pad each group to T, the largest size.
    """
    sizes = np.array([len(g) for g in groups], dtype=np.intp)
    longest, pad = int(sizes.max(initial=0)), (PauliString(), 0j)
    items = [t for g in groups for t in [*g.items(), *[pad] * (longest - len(g))]]
    c = np.array([c for _, c in items], dtype=complex)
    arrays = (*_mask_arrays([s for s, _ in items], n_qubits), c.real, c.imag)
    return [v.reshape((len(groups), longest) + v.shape[1:]) for v in arrays], sizes


def _product_step(
    terms: list, row: np.ndarray, pick: np.ndarray, factors: tuple, n_qubits: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each term times the factor it picks, combined per (row, string).

    Term k of the ``(x, z, re, im)`` arrays ``terms`` lies in ``row[k]`` and
    pairs with the T slots of factor ``pick[k]`` (:func:`_term_table`),
    in blocks of whole terms, at most :data:`_PRODUCT_BLOCK` pairs unless
    one term has more.  Products add per (row, string) in pair order
    (:func:`_ordered_sums`).  A padding pair takes the row past the last,
    so it enters no real key and its sum is dropped unread, as are the
    sums ``PauliSum`` purges.  Returns the kept terms and their rows, in
    order of first appearance.
    """
    table, sizes = factors
    width = table[0].shape[1]
    top = int(row.max(initial=-1)) + 1  # the padding pairs' row
    step = max(1, _PRODUCT_BLOCK // max(1, width))

    def block(start: int) -> tuple[slice, np.ndarray, np.ndarray]:
        k = slice(start, start + step)
        f = pick[k]
        return k, f, np.where(np.arange(width) < sizes[f, None], row[k, None], top)

    def keys_of(start: int) -> np.ndarray:
        k, f, r = block(start)
        x, z = (terms[i][k, None] ^ table[i][f] for i in (0, 1))
        return _keys(r, x, z, n_qubits, top)

    def terms_of(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k, f, r = block(start)
        x, z, re, im = _multiply_terms(
            [v[k, None] for v in terms], [v[f] for v in table]
        )
        return _keys(r, x, z, n_qubits, top), re, im

    first, re, im = _ordered_sums(range(0, len(row), step), keys_of, terms_of)
    k, t = np.divmod(first, width)
    kept = (t < sizes[pick[k]]) & (np.hypot(re, im) > PURGE_TOL)
    k, t = k[kept], t[kept]
    x, z = (terms[i][k] ^ table[i][pick[k], t] for i in (0, 1))
    return [x, z, re[kept], im[kept]], row[k]


def _trusted_string(x_mask: int, z_mask: int) -> PauliString:
    """A string from masks that are already non-negative ``int``s, unchecked.

    The fields are set as the dataclass sets them; touching ``__dict__``
    would give every string its own dict, 150 bytes more.
    """
    string = object.__new__(PauliString)
    object.__setattr__(string, "x_mask", x_mask)
    object.__setattr__(string, "z_mask", z_mask)
    return string


def _string_terms(x, z, re, im) -> dict[PauliString, complex]:
    """Strings of words ``x``, ``z`` with coefficients ``re + i·im``.

    Each coefficient is already the purged sum ``0j + c`` that ``PauliSum``
    forms (a sum from +0.0 never rounds to -0.0).  The masks come from
    ``uint64`` words as ``int``s, so the strings skip :class:`PauliString`'s
    mask check.
    """
    terms = zip(_mask_ints(x), _mask_ints(z), re.tolist(), im.tolist())
    return {_trusted_string(xm, zm): complex(r, i) for xm, zm, r, i in terms}


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


def _x_groups(terms: Mapping[PauliString, complex], real: bool) -> tuple:
    """The terms by x mask, ascending: ``(x masks, bounds, z masks, values)``.

    Group k is the terms ``bounds[k]:bounds[k + 1]`` of the arrays, in
    their order in ``terms``.  Row t of ``values`` holds ``c · (phase ·
    ±1)``, the two entries of :meth:`PauliString.action` times the
    coefficient, formed by the same float operations; only their real
    parts when ``real``.
    """
    x, z = (np.fromiter((getattr(s, m) for s in terms), np.int64, len(terms))
            for m in ("x_mask", "z_mask"))
    phases = np.asarray(_PHASES)[np.bitwise_count(x & z) & 3, None]
    coeffs = np.fromiter(terms.values(), complex, len(terms))[:, None]
    values = coeffs * (phases * np.array([1.0, -1.0]))
    order = np.argsort(x, kind="stable")
    x, z, values = x[order], z[order], (values.real if real else values)[order]
    bounds = np.flatnonzero(np.diff(x, prepend=-1, append=-1))
    return x[bounds[:-1]].tolist(), bounds.tolist(), z, values


def _x_sums(src: np.ndarray, z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per index b, the sum over one x mask's terms of ``c · d[b]``.

    ``src`` holds ``b ^ x``, whose Z parities pick each term's sign.  The
    terms add in order, as :meth:`PauliSum.to_dense` adds them: the rows
    reduce from the first, and adding +0.0 turns a -0.0 into the +0.0 of a
    sum from +0.0.  At most :data:`_SIGNS_PER_INDEX` signs an index exist
    at once.
    """
    out = np.empty(len(src), dtype=values.dtype)
    step = max(1, _SIGNS_PER_INDEX * len(src) // len(z))
    for lo in range(0, len(src), step):
        odd = np.bitwise_count(src[lo : lo + step] & z[:, None])
        odd &= 1
        rows = np.where(odd, values[:, 1:], values[:, :1])
        del odd
        out[lo : lo + step] = np.add.reduce(rows, axis=0) + 0.0
    return out


def _fill_cells(
    idx: np.ndarray,
    label: np.ndarray,
    pivots: dict[int, int],
    groups: tuple,
    bound: float,
    dtype: type,
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """:meth:`PauliSum.blocks`' cells of equal (coset, label), filled.

    ``None`` when an entry between two labels exceeds ``bound``.
    """
    key = idx
    for col, prow in pivots.items():
        key = key ^ ((key >> col) & 1) * prow
    key = key << 16 | label  # the coset, then the label
    order = np.argsort(key, kind="stable")  # indices ascend within a cell
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    del key
    size = np.diff(first, append=len(idx))
    by_size = np.argsort(size, kind="stable")
    sizes = size[by_size]  # cells by size, then (coset, label)
    lead = np.cumsum(sizes) - sizes  # the first row of each cell
    cell = np.repeat(np.arange(len(sizes)), sizes)  # of each row
    rows = order[np.repeat(first[by_size] - lead, sizes) + idx]
    del order, first, size, by_size
    offset, start = np.empty_like(idx), np.empty_like(idx)
    offset[rows] = idx - lead[cell]
    # where the row of each index begins in flat
    start[rows] = (np.cumsum(sizes**2) - sizes**2)[cell] + offset[rows] * sizes[cell]
    del cell
    flat = np.zeros(int(np.sum(sizes**2)), dtype=dtype)
    xs, bounds, z, values = groups
    for x, lo, hi in zip(xs, bounds, bounds[1:]):
        src = idx ^ x
        same = label == label[src]
        total = _x_sums(src, z[lo:hi], values[lo:hi])
        if np.any(np.abs(total[~same]) > bound):
            return None
        flat[start[same] + offset[src[same]]] = total[same]
    out, taken, at = [], 0, 0  # cells and rows already in out
    for last in np.flatnonzero(np.diff(sizes, append=0)).tolist():  # of each size
        s, count = int(sizes[last]), last + 1 - taken
        out.append((rows[at : at + count * s].reshape(-1, s),
                    flat[: count * s * s].reshape(-1, s, s)))
        flat, taken, at = flat[count * s * s :], last + 1, at + count * s
    return out


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

        One :func:`_product_step` on one row, each term of ``self`` picking
        ``other``: strings in order of first appearance.
        """
        self._require_same_width(other)
        n, zeros = self._n_qubits, np.zeros(len(self._terms), dtype=np.intp)
        (a, _), b = (_term_table([s._terms], n) for s in (self, other))
        (x, z, re, im), _ = _product_step([v[0] for v in a], zeros, zeros, b, n)
        return self._adopt(_string_terms(x, z, re, im))

    @classmethod
    def from_products(
        cls,
        n_qubits: int,
        factors: Sequence["PauliSum"],
        rows: np.ndarray,
        weights: np.ndarray,
    ) -> "PauliSum":
        """``Σₖ weights[k] · Π_f factors[rows[k, f]]``, all rows at once.

        ``rows`` holds K rows of indices into ``factors``, in product order.
        Each row starts from the identity, and one :func:`_product_step`
        per column multiplies it by the factor it picks there, as a
        row-by-row ``@`` does.  One more step adds the weighted rows into
        each string from zero, in row order, and purges the sums, strings
        in order of first appearance: bit for bit a row-by-row ``@`` and
        the constructor.

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
        table = _term_table([f._terms for f in factors], n_qubits)
        n_chains = len(rows) * table[0][0].shape[1] ** rows.shape[1]
        n_words = max(1, -(-n_qubits // 64))
        check_memory(n_chains * (64 * n_words + 96), f"{n_chains:,} product chains")
        # each row's terms, flat and row by row, from the identity
        row, zero = np.arange(len(rows)), np.zeros((len(rows), 1, n_words), np.uint64)
        terms = [zero[:, 0], zero[:, 0], np.ones(len(rows)), np.zeros(len(rows))]
        for picks in rows.T:
            terms, row = _product_step(terms, row, picks[row], table, n_qubits)
        # all terms in one row, row k's times weight k: a 1-term factor per row
        weighted = [zero, zero, weights.real[:, None], weights.imag[:, None]]
        (x, z, re, im), _ = _product_step(
            terms, 0 * row, row, (weighted, np.ones(len(rows), np.intp)), n_qubits
        )
        return cls(n_qubits)._adopt(_string_terms(x, z, re, im))

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

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The symmetry cells ``[(rows, mats), ...]``, one pair per cell size.

        A string maps ``|b>`` to a multiple of ``|b^x>``, so the cosets of
        the span of the terms' x masks (rank r, :func:`gf2_reduce`) are
        closed under the sum.  Each index also carries the label (popcount
        of its even bits, popcount of its odd bits): (Nα, Nβ) in the layout
        of ``chem.jordan_wigner``, which a molecular sum conserves.  A cell
        holds the indices of one coset and one label.

        The pairs ascend in cell size.  Row k of a pair's ``rows`` holds one
        cell's indices, ascending, the cells ordered by coset (its indices
        with the pivot bits cleared), then label, and ``mats[k][i, j] =
        <rows[k, i]|H|rows[k, j]>``, real when no term has an odd number of
        Y factors (every string matrix is then real, and so is a Hermitian
        sum).  Strings sharing an x mask add from zero in term order, so
        each entry is the float sum of :meth:`to_dense`.

        An entry between two labels is dropped when it is at most
        eps · ‖H − h0‖₁ (eps of float64, h0 the identity coefficient); such
        entries are the rounding residue of sums that cancel in exact
        arithmetic.  A row of the dropped part holds at most one entry per
        x mask, so no eigenvalue moves by more than their number times that
        bound.  If any such entry is larger, every index takes one label:
        the cells are the cosets, 2^r rows each, in coset order.

        Raises:
            ValueError: non-Hermitian sum, or the cells and the vectors an
                ``eigh`` returns beside them (``2 · (8|16)`` bytes an
                entry), the 2^n-long index arrays (256 bytes an index) and
                the sorted terms (256 bytes a term) exceed physical memory.
                With labels the cells hold at most C(2e, e) · C(2o, o)
                entries over e even and o odd qubits, and at most 2^n · 2^r;
                with one label, 2^n · 2^r.  Each layout is checked before
                it is built, the labelled one first.
        """
        if not self.is_hermitian():
            raise ValueError("symmetry blocks require a Hermitian sum")
        real = all(s.phase.imag == 0 for s in self._terms)
        # repeated x masks are dependent rows: the pivots of the distinct ones
        pivots, _ = gf2_reduce(dict.fromkeys(s.x_mask for s in self._terms))
        n, dim = self._n_qubits, 1 << self._n_qubits
        bound = np.finfo(float).eps * sum(
            abs(c) for s, c in self._terms.items() if s.x_mask | s.z_mask
        )
        item, coset = (8 if real else 16), dim << len(pivots)
        even, odd = (n + 1) // 2, n // 2
        spin_pairs = min(math.comb(2 * even, even) * math.comb(2 * odd, odd), coset)
        need = [2 * item * pairs + 256 * (dim + len(self._terms))
                for pairs in (spin_pairs, coset)]
        check_memory(need[0], "symmetry blocks")
        groups = _x_groups(self._terms, real)
        dtype, idx = (float if real else complex), np.arange(dim)
        # (popcount of the even bits, popcount of the odd bits) as one integer
        label = np.bitwise_count(idx & _X_BITS).astype(np.intp) << 8
        label |= np.bitwise_count(idx >> 1 & _X_BITS)
        cells = _fill_cells(idx, label, pivots, groups, bound, dtype)
        if cells is None:  # the same cells with one label: the cosets
            if need[1] > need[0]:
                check_memory(need[1], "symmetry blocks")
            label[:] = 0
            cells = _fill_cells(idx, label, pivots, groups, bound, dtype)
        return cells

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
        for t in payload["terms"]:
            if not isinstance(t["paulis"], str):
                raise ValueError(f"Pauli label {t['paulis']!r} is not a string")
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
