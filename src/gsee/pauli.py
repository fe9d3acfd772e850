"""Exact algebra over Pauli strings and weighted Pauli sums.

Strings are held in a symplectic bitmask representation: a string is the
pair of integers ``(x_mask, z_mask)`` where bit ``q`` of ``x_mask`` /
``z_mask`` records an X / Z factor on qubit ``q``, and a Y factor sets
both bits.  Products, commutation checks, and dense-matrix actions then
reduce to bit arithmetic.

A sum holds its terms as arrays of their masks, bit-packed as in Stim
(Gidney, *Quantum* 5, 497, 2021): ``uint64[T, W]`` words with ``W =
ceil(n/64)``, and ``complex`` coefficients (T), in formation order.
Products (``@`` and :meth:`PauliSum.from_products`, one blocked step
:func:`_product_step`), the canonical order (:meth:`PauliSum.terms`) and
the commuting sets (:meth:`PauliSum.group_commuting`, from a table over
the active qubits' factors and no pair graph) read the arrays and
reproduce their loop versions bit for bit; strings are built only where
a caller asks for them.  Like strings add in one ordered sum with two
slot maps (:func:`_ordered_sums`): a sorted table of the distinct keys,
or, for ``@`` alone, a table indexed by the symplectic key ``x << n | z``
(Dehaene & De Moor, PRA 68, 042318, 2003).  ``@`` takes it when its
24 · 4ⁿ bytes fit a 32 MiB budget (widths up to 10) and the product has
at least 4ⁿ / 32 term pairs, where it is no slower than the sort.

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
``@``, :meth:`PauliSum.from_products` and :meth:`PauliSum.group_commuting`
refuse only a peak estimate beyond physical memory (:func:`check_memory`),
before their large arrays exist.

Example:
    >>> x = PauliSum(1, {PauliString.from_label("X0"): 1.0})
    >>> y = PauliSum(1, {PauliString.from_label("Y0"): 1.0})
    >>> [(s.to_label(), c) for s, c in (x @ y).terms()]
    [('Z0', 1j)]
"""

from __future__ import annotations

import itertools
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
    "distinct_strings",
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

# The table budget of ``@``'s dense slot map (:func:`_ordered_sums`), and
# the share of 4ⁿ its pairs must reach: on random sums at widths 8 and 10
# the two maps break even between 4ⁿ/64 and 4ⁿ/32 pairs.
_DENSE_BYTES = 32 << 20
_DENSE_SHARE = 32
_NO_ELEMENT = np.iinfo(np.intp).max  # the first element of an unused slot

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
        if type(self.x_mask) is type(self.z_mask) is int and self.x_mask >= 0 <= self.z_mask:
            return
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
        _, qubit, axis = _factors([label])
        return cls.from_support(dict(zip(qubit.tolist(), map(chr, axis.tolist()))))

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


def _n_words(n_qubits: int) -> int:
    """Mask words of a register: ``max(1, ceil(n/64))``."""
    return max(1, -(-n_qubits // 64))


def _words(masks: Sequence[int], n_qubits: int) -> np.ndarray:
    """Integer masks as ``uint64`` words of shape ``(len(masks), W)``."""
    out = np.empty((len(masks), _n_words(n_qubits)), dtype=np.uint64)
    for w in range(out.shape[1]):
        out[:, w] = [(m >> 64 * w) & 0xFFFF_FFFF_FFFF_FFFF for m in masks]
    return out


def _mask_ints(words: np.ndarray) -> list[int]:
    """The integer masks of ``(N, W)`` words laid out as :func:`_words`."""
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
    blocks: Sequence, keys_of: Callable, terms_of: Callable, slots: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sums of values over equal keys, added as a dict loop adds them.

    ``keys_of(block)`` gives a block's keys and ``terms_of(block)`` its
    ``(keys, re, im)``.  Each element finds its key's slot in one of two
    slot maps and ``np.add.at`` adds its value there, from zero in element
    order.  Returns ``(first, re, im)`` per key, in order of first
    appearance, the same from either map.

    - The sorted map (``slots`` 0): pass 1 builds one sorted table of the
      distinct keys with the index of each one's first element, and pass 2
      finds each element's slot by ``np.searchsorted``.
    - The dense map (every key below ``slots``): each key is its own slot
      of a table of ``slots`` sums, and ``np.minimum.at`` records each
      key's first element in the same single pass.  Only ``PauliSum.@``
      takes it, when the 24 · 4ⁿ-byte table fits :data:`_DENSE_BYTES`
      (32 MiB, widths up to 10) and the product has at least
      4ⁿ / :data:`_DENSE_SHARE` (4ⁿ / 32) pairs.
    """
    if slots:
        first = np.full(slots, _NO_ELEMENT)
    else:
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
    total, offset = np.zeros((2, len(first))), 0
    for block in blocks:
        keys, re, im = (a.ravel() for a in terms_of(block))  # ufunc.at is fast on 1-d
        if slots:
            np.minimum.at(first, keys, np.arange(offset, offset + keys.size))
            offset += keys.size
        slot = keys if slots else np.searchsorted(table, keys)
        np.add.at(total[0], slot, re)
        np.add.at(total[1], slot, im)
    if slots:
        used = np.flatnonzero(first != _NO_ELEMENT)
        first, total = first[used], total[:, used]
    order = np.argsort(first)
    return first[order], total[0, order], total[1, order]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + i·im`` as a ``complex`` array, each part copied bit for bit."""
    return np.stack((re, im), axis=-1).view(complex)[:, 0]


def _combined(x, z, coeff: np.ndarray, n_qubits: int) -> tuple:
    """``(x, z, coeff)`` with like strings added from zero in term order, at
    their first place, as a dict of sums from ``0j`` adds them, and purged.
    """
    keys = _keys(np.zeros(len(x), np.intp), x, z, n_qubits, 0)
    first, re, im = _ordered_sums(
        [keys], lambda k: k, lambda k: (k, coeff.real, coeff.imag)
    )
    kept = np.hypot(re, im) > PURGE_TOL  # np.hypot is Python's abs bit for bit
    return x[first[kept]], z[first[kept]], _complex(re[kept], im[kept])


def _term_table(sums: Sequence["PauliSum"], n_qubits: int) -> tuple[list, np.ndarray]:
    """Term groups as ``(x, z, re, im)`` arrays ``(G, T, ...)``, and their sizes.

    Identities of coefficient 0 pad each group to T, the largest size.
    """
    sizes = np.array([len(s) for s in sums], dtype=np.intp)
    shape = (len(sums), int(sizes.max(initial=0)))
    x, z = np.zeros((2, *shape, _n_words(n_qubits)), dtype=np.uint64)
    c = np.zeros(shape, dtype=complex)
    for g, s in enumerate(sums):
        x[g, : len(s)], z[g, : len(s)], c[g, : len(s)] = s.x, s.z, s.coeff
    return [x, z, c.real, c.imag], sizes


def _product_step(
    terms: list, row: np.ndarray, pick: np.ndarray, factors: tuple, n_qubits: int,
    slots: int = 0,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each term times the factor it picks, combined per (row, string).

    Term k of the ``(x, z, re, im)`` arrays ``terms`` lies in ``row[k]`` and
    pairs with the T slots of factor ``pick[k]`` (:func:`_term_table`),
    in blocks of whole terms, at most :data:`_PRODUCT_BLOCK` pairs unless
    one term has more.  Products add per (row, string) in pair order
    (:func:`_ordered_sums`, in its dense map with ``slots``).  A padding
    pair takes the row past the last, so it enters no real key and its sum
    is dropped unread, as are the sums ``PauliSum`` purges.  Returns the
    kept terms and their rows, in order of first appearance.
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

    first, re, im = _ordered_sums(range(0, len(row), step), keys_of, terms_of, slots)
    k, t = np.divmod(first, width)
    kept = (t < sizes[pick[k]]) & (np.hypot(re, im) > PURGE_TOL)
    k, t = k[kept], t[kept]
    x, z = (terms[i][k] ^ table[i][pick[k], t] for i in (0, 1))
    return [x, z, re[kept], im[kept]], row[k]


def _bits(words: np.ndarray, n_qubits: int) -> np.ndarray:
    """``(N, W)`` mask words as ``(N, n)`` 0/1 bits, qubit 0 first."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                         count=n_qubits, bitorder="little")


def _canonical_order(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """Indices that sort strings of words ``x``, ``z`` by :meth:`PauliString.sort_key`.

    Qubit ``q`` of a string gets the digit 1, 2 or 3 for X, Y or Z, 4 for
    an identity below the string's last factor and 0 past it.  One
    ``np.lexsort`` over the digits, qubit 0 first, then compares strings
    as ``sort_key`` compares its tuples: a prefix sorts first.
    """
    bx, bz = _bits(x, n_qubits), _bits(z, n_qubits)
    present = bx | bz
    before_last = np.cumsum(present[:, ::-1], axis=1)[:, ::-1] > 0
    digits = np.where(present, present + bz * (2 - bx), 4 * before_last)
    if not digits.shape[1]:
        return np.arange(len(digits))  # no qubits, so at most the identity
    return np.lexsort(digits.T[::-1])


def _factors(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(label, qubit, axis)`` of every factor of the labels, in label order.

    The one parser of the label grammar: whitespace-separated tokens, each
    an ASCII axis letter X, Y or Z in either case followed by the ASCII
    digits of a qubit index below 2^32, no qubit twice in a label.
    ``axis`` holds the upper-case letters' codes.

    Raises:
        ValueError: on a malformed token or a repeated qubit index, naming
            the first one.
    """
    tokens = list(map(str.split, labels))
    counts = np.fromiter(map(len, tokens), np.intp, len(labels))
    # the tokens one space apart; a non-ASCII character becomes one "?",
    # which no token may hold
    text = " ".join(itertools.chain.from_iterable(tokens))
    code = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    start = np.r_[0, np.flatnonzero(code == ord(" ")) + 1][: counts.sum()]
    size = np.diff(start, append=len(code) + 1) - 1
    axis = code[start] & 0xDF  # upper case
    bad = (size < 2) | (axis - np.uint8(ord("X")) > 2)
    digit = code - np.uint8(ord("0"))
    digit[start] = 0
    # a token holding a character past its letter that is no digit
    odd = np.flatnonzero((digit > 9) & (code != ord(" ")))
    bad[np.searchsorted(start, odd, "right") - 1] = True
    qubit = np.zeros(len(start), np.int64)
    for k in range(1, min(16, size.max(initial=0))):  # Horner, to 15 digits
        more = size > k
        qubit[more] = 10 * qubit[more] + digit[start[more] + k]
    for i in np.flatnonzero((size > 16) & ~bad).tolist():
        qubit[i] = min(int(text[start[i] + 1 : start[i] + size[i]]), 2**32)
    bad |= qubit >= 2**32
    term = np.repeat(np.arange(len(labels)), counts)
    # a malformed token's key is its own, so that only parsed qubits repeat
    key = np.where(bad, -1 - np.arange(len(bad)), term << 32 | qubit)
    order = np.argsort(key, kind="stable")  # a repeated qubit's tokens keep their order
    again = order[1:][key[order][1:] == key[order][:-1]].min(initial=len(bad))
    # the first fault in token order, as a token-by-token parse meets it
    if bad.any() and np.argmax(bad) < again:
        i = np.argmax(bad)
        raise ValueError(f"malformed Pauli token {text[start[i] : start[i] + size[i]]!r}")
    if again < len(bad):
        raise ValueError(f"qubit {qubit[again]} appears twice in {labels[term[again]]!r}")
    return term, qubit, axis


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


def _x_groups(x: np.ndarray, z: np.ndarray, coeff: np.ndarray, real: bool) -> tuple:
    """The terms by x mask, ascending: ``(x masks, bounds, z masks, values)``.

    Group k is the terms ``bounds[k]:bounds[k + 1]`` of the arrays, in
    their order in ``x``.  Row t of ``values`` holds ``c · (phase ·
    ±1)``, the two entries of :meth:`PauliString.action` times the
    coefficient, formed by the same float operations; only their real
    parts when ``real``.
    """
    x, z = x[:, 0].astype(np.int64), z[:, 0].astype(np.int64)
    phases = np.asarray(_PHASES)[np.bitwise_count(x & z) & 3, None]
    values = coeff[:, None] * (phases * np.array([1.0, -1.0]))
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
    below :data:`PURGE_TOL`.  Instances are immutable.  The terms are the
    read-only arrays :attr:`x`, :attr:`z` and :attr:`coeff`, in the order
    they were formed.
    """

    __slots__ = ("_n_qubits", "_x", "_z", "_coeff")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, complex]
        | Iterable[tuple[PauliString, complex]] = (),
    ) -> None:
        if n_qubits < 0:
            raise ValueError("register width must be non-negative")
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        wide = [s for s, _ in items if s.min_width > n_qubits]
        if wide:
            raise ValueError(f"term {wide[0].to_label()!r} exceeds register width {n_qubits}")
        x, z = (_words([getattr(s, m) for s, _ in items], n_qubits)
                for m in ("x_mask", "z_mask"))
        coeff = np.array([c for _, c in items], dtype=complex)
        self._set(n_qubits, *_combined(x, z, coeff, n_qubits))

    def _set(self, n_qubits: int, x: np.ndarray, z: np.ndarray, coeff: np.ndarray) -> None:
        for array in (x, z, coeff):
            array.flags.writeable = False  # the sum is immutable, and so are they
        self._n_qubits, self._x, self._z, self._coeff = n_qubits, x, z, coeff

    @classmethod
    def _of(cls, n_qubits: int, x, z, coeff: np.ndarray) -> "PauliSum":
        """A sum over arrays that are already combined and purged."""
        out = object.__new__(cls)
        out._set(n_qubits, x, z, coeff)
        return out

    @classmethod
    def from_arrays(
        cls, n_qubits: int, x: np.ndarray, z: np.ndarray, coeff: np.ndarray
    ) -> "PauliSum":
        """``Σₜ coeff[t] · P(x[t], z[t])``, combined as the constructor combines.

        Args:
            x, z: mask words laid out as :attr:`x`, one row per coefficient.

        Raises:
            ValueError: negative width, masks of another shape, or a term
                that exceeds the register.
        """
        if n_qubits < 0:
            raise ValueError("register width must be non-negative")
        coeff = np.asarray(coeff, complex)
        x, z = np.asarray(x, np.uint64), np.asarray(z, np.uint64)
        shape = (len(coeff), _n_words(n_qubits))
        if x.shape != shape or z.shape != shape:
            raise ValueError(f"mask words must have shape {shape}, not {x.shape} and {z.shape}")
        spare = 64 * shape[1] - n_qubits  # bits of the last word past the register
        wide = np.flatnonzero((x | z)[:, -1] >> np.uint64(64 - spare)) if spare else []
        if len(wide):
            label = PauliString(*(_mask_ints(m[wide[:1]])[0] for m in (x, z))).to_label()
            raise ValueError(f"term {label!r} exceeds register width {n_qubits}")
        return cls._of(n_qubits, *_combined(x, z, coeff, n_qubits))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def x(self) -> np.ndarray:
        """X bits as ``uint64`` words ``(T, W)``, qubits 64w..64w+63 in word w."""
        return self._x

    @property
    def z(self) -> np.ndarray:
        """Z bits, laid out as :attr:`x`."""
        return self._z

    @property
    def coeff(self) -> np.ndarray:
        """``complex`` coefficients (T)."""
        return self._coeff

    def canonical(self) -> "PauliSum":
        """The same sum, terms in :meth:`PauliString.sort_key` order (identity first)."""
        order = _canonical_order(self._x, self._z, self._n_qubits)
        return self._of(self._n_qubits, self._x[order], self._z[order], self._coeff[order])

    def terms(self) -> list[tuple[PauliString, complex]]:
        """Terms in canonical order (identity first).

        The order is :meth:`PauliString.sort_key`'s, from one
        ``np.lexsort`` over factor codes (see :func:`_canonical_order`).
        """
        return self.canonical().items()

    def items(self) -> list[tuple[PauliString, complex]]:
        """The terms in the order they were formed, without :meth:`terms`' sort."""
        strings = map(PauliString, _mask_ints(self._x), _mask_ints(self._z))
        return list(zip(strings, self._coeff.tolist()))

    @property
    def identity_coefficient(self) -> complex:
        identity = ~(self._x.any(axis=1) | self._z.any(axis=1))
        return next(iter(self._coeff[identity].tolist()), 0j)

    def __len__(self) -> int:
        return len(self._coeff)

    def __eq__(self, other: object) -> bool:
        """The same register and (string, coefficient) pairs, in any order."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self._n_qubits != other._n_qubits or len(self) != len(other):
            return False
        a, b = self.canonical(), other.canonical()
        return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("x", "z", "coeff"))

    def one_norm(self) -> float:
        """Coefficient 1-norm, an upper bound on the spectral norm."""
        return float(sum(np.hypot(self._coeff.real, self._coeff.imag).tolist()))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self._coeff.imag) <= tol))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _require_same_width(self, other: "PauliSum") -> None:
        if self._n_qubits != other._n_qubits:
            raise ValueError(
                f"register-width mismatch: {self._n_qubits} vs {other._n_qubits}"
            )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        """Like strings add in place, ``other``'s new strings after ``self``'s."""
        self._require_same_width(other)
        x, z, coeff = (np.concatenate(pair) for pair in (
            (self._x, other._x), (self._z, other._z), (self._coeff, other._coeff)))
        return self._of(self._n_qubits, *_combined(x, z, coeff, self._n_qubits))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        # each c * scalar by the float operations of Python's complex product
        s, re, im = complex(scalar), self._coeff.real, self._coeff.imag
        coeff = _complex(re * s.real - im * s.imag, re * s.imag + im * s.real)
        return self._of(self._n_qubits, *_combined(self._x, self._z, coeff, self._n_qubits))

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product with like terms combined, bit for bit the pair loop's.

        One :func:`_product_step` on one row, each term of ``self`` picking
        ``other``: strings in order of first appearance.  Large products
        take the dense slot map of :func:`_ordered_sums`.

        Raises:
            ValueError: the widths differ, or the peak estimate exceeds
                physical memory: a block of pairs at ``64 · W + 128`` bytes
                each (W mask words), the dense table, and ``96 · W + 64``
                bytes a string for at most min(pairs, 4ⁿ) strings.
        """
        self._require_same_width(other)
        n, pairs, strings = self._n_qubits, len(self) * len(other), 4**self._n_qubits
        dense = 24 * strings <= _DENSE_BYTES and _DENSE_SHARE * pairs >= strings
        slots = strings if dense else 0
        block, words = min(pairs, max(_PRODUCT_BLOCK, len(other))), _n_words(n)
        check_memory(
            (64 * words + 128) * block + 24 * slots + (96 * words + 64) * min(pairs, strings),
            f"the product of {len(self):,} by {len(other):,} terms",
        )
        zeros = np.zeros(len(self), dtype=np.intp)
        terms = [self._x, self._z, self._coeff.real, self._coeff.imag]
        (x, z, re, im), _ = _product_step(
            terms, zeros, zeros, _term_table([other], n), n, slots
        )
        return self._of(n, x, z, _complex(re, im))

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
        table = _term_table(factors, n_qubits)
        n_chains = len(rows) * table[0][0].shape[1] ** rows.shape[1]
        n_words = _n_words(n_qubits)
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
        return cls._of(n_qubits, x, z, _complex(re, im))

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
        # one word a mask (check_memory refuses 64 qubits), a term at a time
        for x, z, c in zip(self._x[:, 0], self._z[:, 0], self._coeff):
            src, d = PauliString(int(x), int(z)).action(dim)
            out[idx, src] += complex(c) * d
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
        real = not np.any(_popcount(self._x & self._z) & 1)
        # repeated x masks are dependent rows: the pivots of the distinct ones
        pivots, _ = gf2_reduce(dict.fromkeys(_mask_ints(self._x)))
        n, dim = self._n_qubits, 1 << self._n_qubits
        c = self._coeff[(self._x | self._z).any(axis=1)]  # all but the identity's
        bound = np.finfo(float).eps * sum(np.hypot(c.real, c.imag).tolist())
        item, coset = (8 if real else 16), dim << len(pivots)
        even, odd = (n + 1) // 2, n // 2
        spin_pairs = min(math.comb(2 * even, even) * math.comb(2 * odd, odd), coset)
        need = [2 * item * pairs + 256 * (dim + len(self))
                for pairs in (spin_pairs, coset)]
        check_memory(need[0], "symmetry blocks")
        groups = _x_groups(self._x, self._z, self._coeff, real)
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
        magnitudes = np.hypot(self._coeff.real, self._coeff.imag)
        kept = ~(magnitudes < threshold)
        dropped = float(np.cumsum(np.r_[0.0, magnitudes[~kept]])[-1])
        x, z, coeff = self._x[kept], self._z[kept], self._coeff[kept]
        return self._of(self._n_qubits, x, z, coeff), dropped

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
        canonical = self.canonical()
        n = len(canonical)
        bx, bz = (_bits(w, self._n_qubits) for w in (canonical.x, canonical.z))
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
        terms, by_color = canonical.items(), np.argsort(color, kind="stable")
        sets = np.split(by_color, np.cumsum(np.bincount(color))[:-1]) if n else []
        return tuple(tuple(terms[i] for i in s.tolist()) for s in sets)

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
        """Parses :meth:`to_json`'s format, like strings combined.

        Raises:
            ValueError: a malformed label, a non-finite coefficient, or a
                width that is not a non-negative integer or that a term exceeds.
        """
        payload = json.loads(text)
        labels = [t["paulis"] for t in payload["terms"]]
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"Pauli label {label!r} is not a string")
        term, qubit, axis = _factors(labels)
        coeff = np.array([complex(*t["coeff"]) for t in payload["terms"]], complex)
        if not np.isfinite(coeff).all():
            raise ValueError("non-finite term coefficient")
        n = payload["n_qubits"]
        if type(n) is not int:
            raise ValueError("n_qubits must be an integer")
        if n < 0:
            raise ValueError("register width must be non-negative")
        if np.any(qubit >= n):
            label = PauliString.from_label(labels[term[np.argmax(qubit >= n)]]).to_label()
            raise ValueError(f"term {label!r} exceeds register width {n}")
        word, bit = np.divmod(qubit, 64)
        one = np.uint64(1) << bit.astype(np.uint64)
        x, z = np.zeros((2, len(labels), _n_words(n)), dtype=np.uint64)
        for masks, on in ((x, axis != ord("Z")), (z, axis != ord("X"))):
            np.bitwise_or.at(masks, (term[on], word[on]), one[on])
        return cls._of(n, *_combined(x, z, coeff, n))

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


def distinct_strings(sums: Sequence[PauliSum]) -> tuple[PauliSum, np.ndarray]:
    """The strings of ``sums``, each once, and where each term's string lies.

    Returns ``(distinct, index)``: ``distinct`` holds every string of the
    sums once, with coefficient 1, in order of first appearance; term k of
    the sums, taken in order, has the string ``index[k]`` of ``distinct``.
    """
    n = sums[0].n_qubits
    if any(s.n_qubits != n for s in sums):
        raise ValueError(f"every sum must act on {n} qubits")
    x, z = (np.concatenate([getattr(s, m) for s in sums]) for m in ("x", "z"))
    keys = _keys(np.zeros(len(x), np.intp), x, z, n, 0)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ones = np.ones(len(first), complex)
    return PauliSum._of(n, x[first[order]], z[first[order]], ones), rank[inverse]
