import itertools
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsee import pauli
from gsee.chem import _gf2_nullspace, jordan_wigner, parse_fcidump, taper_z2
from gsee.pauli import PauliString, PauliSum, sum_multiply
from gsee.qcels import scale
from helpers import (
    blocked_eig_sums,
    coefficient,
    coset_blocks,
    dense_string,
    dense_sum,
    eig,
    eig_sums,
    greedy_coloring_reference,
    loop_product,
    multiply,
    odd_y_count,
    purged_product,
    random_integrals,
    random_string,
    random_sum,
    spin_label,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

# sigma_a . sigma_b = delta_ab I + i eps_abc sigma_c, frozen by hand
SINGLE_QUBIT_PRODUCTS = {
    ("X", "X"): (1, ""),
    ("Y", "Y"): (1, ""),
    ("Z", "Z"): (1, ""),
    ("X", "Y"): (1j, "Z0"),
    ("Y", "X"): (-1j, "Z0"),
    ("Y", "Z"): (1j, "X0"),
    ("Z", "Y"): (-1j, "X0"),
    ("Z", "X"): (1j, "Y0"),
    ("X", "Z"): (-1j, "Y0"),
}


class TestPauliString:
    def test_label_round_trip(self):
        s = PauliString.from_label("X0 Y3 Z5")
        assert s.support == {0: "X", 3: "Y", 5: "Z"}
        assert s.to_label() == "X0 Y3 Z5"
        assert PauliString.from_label("") == PauliString()

    def test_label_rejects_duplicates_and_garbage(self):
        with pytest.raises(ValueError):
            PauliString.from_label("X0 Y0")
        with pytest.raises(ValueError):
            PauliString.from_label("Q1")
        with pytest.raises(ValueError):
            PauliString.from_support({-1: "X"})

    @pytest.mark.parametrize("x, z, name", [
        (-1, 0, "x_mask"), (0, -4, "z_mask"), (1.0, 0, "x_mask"),
        (0, "1", "z_mask"), (np.float64(1.0), 0, "x_mask"),
    ])
    def test_negative_and_non_integer_masks_rejected(self, x, z, name):
        # a negative mask would index the dense action from the end, and
        # its label would not round-trip through JSON
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            PauliString(x, z)

    def test_numpy_integer_masks_become_int(self):
        s = PauliString(np.int64(1), np.uint8(2))
        assert type(s.x_mask) is int and type(s.z_mask) is int
        assert s == PauliString(1, 2) and hash(s) == hash(PauliString(1, 2))
        assert str(s) == "X0 Z1"
        assert PauliSum(2, {s: 1.0}).to_dense().shape == (4, 4)

    def test_weight_and_width(self):
        s = PauliString.from_label("X1 Z4")
        assert (s.x_mask | s.z_mask).bit_count() == 2
        assert s.min_width == 5

    def test_single_qubit_products_frozen(self):
        for (a, b), (phase, label) in SINGLE_QUBIT_PRODUCTS.items():
            got_phase, got = multiply(
                PauliString.from_label(f"{a}0"), PauliString.from_label(f"{b}0")
            )
            assert got_phase == phase, (a, b)
            assert got.to_label() == label, (a, b)

    def test_self_product_is_identity(self):
        s = PauliString.from_label("X0 Z1")
        phase, prod = multiply(s, s)
        assert phase == 1
        assert prod == PauliString()

    def test_multiply_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_string(rng, 4)
            b = random_string(rng, 4)
            phase, prod = multiply(a, b)
            direct = dense_string(a, 4) @ dense_string(b, 4)
            assert np.allclose(direct, phase * dense_string(prod, 4), atol=1e-14)

    def test_multiply_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (random_string(rng, 3) for _ in range(3))
            p1, ab = multiply(a, b)
            p2, ab_c = multiply(ab, c)
            q1, bc = multiply(b, c)
            q2, a_bc = multiply(a, bc)
            assert ab_c == a_bc
            assert p1 * p2 == q1 * q2

    def test_commutes_examples(self):
        xx = PauliString.from_label("X0 X1")
        zz = PauliString.from_label("Z0 Z1")
        assert xx.commutes(zz, "full")
        x0, z0 = PauliString.from_label("X0"), PauliString.from_label("Z0")
        assert not x0.commutes(z0, "full")
        assert not x0.commutes(z0, "qubitwise")
        # commuting at the operator level but not qubitwise
        assert not xx.commutes(zz, "qubitwise")
        with pytest.raises(ValueError):
            xx.commutes(zz, "sideways")

    def test_commutes_exhaustive_two_qubits_vs_dense(self):
        axes = ["I", "X", "Y", "Z"]
        strings = [
            PauliString.from_support(
                {q: a for q, a in enumerate((a0, a1)) if a != "I"}
            )
            for a0 in axes
            for a1 in axes
        ]
        for a in strings:
            for b in strings:
                da, db = dense_string(a, 2), dense_string(b, 2)
                dense_commutes = np.allclose(da @ db, db @ da)
                assert a.commutes(b, "full") == dense_commutes, (a, b)
                # qubitwise commutation implies full commutation
                if a.commutes(b, "qubitwise"):
                    assert dense_commutes

    @settings(deadline=None)
    @given(data=st.data())
    def test_action_phase_and_signs_match_dense(self, data):
        n = data.draw(st.integers(1, 6))
        dim = 1 << n
        masks = st.integers(0, dim - 1)
        s = PauliString(data.draw(masks), data.draw(masks))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch = data.draw(st.integers(1, 3))
        amps = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        np.testing.assert_allclose(
            s.act(amps), (dense_string(s, n) @ amps.T).T, rtol=0, atol=1e-12
        )
        n_y = sum(axis == "Y" for axis in s.support.values())
        assert s.phase == 1j**n_y
        indices = np.array(data.draw(st.lists(masks, min_size=1, max_size=8)))
        z_masks = np.array(data.draw(st.lists(masks, min_size=1, max_size=4)))
        table = pauli.z_signs(indices[:, None], z_masks)
        assert table.shape == (len(indices), len(z_masks))
        for i, b in enumerate(indices.tolist()):
            for j, z in enumerate(z_masks.tolist()):
                eigenvalues = [
                    -1.0 if b >> q & 1 else 1.0 for q in range(n) if z >> q & 1
                ]
                assert table[i, j] == np.prod(eigenvalues)

    @settings(deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_action_scattered_is_the_dense_matrix(self, n, data):
        dim = 1 << n
        masks = st.integers(0, dim - 1)
        s = PauliString(data.draw(masks), data.draw(masks))
        src, d = s.action(dim)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[np.arange(dim), src] = d
        np.testing.assert_array_equal(matrix, dense_string(s, n))

    def test_commutes_randomized_four_qubits(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = random_string(rng, 4)
            b = random_string(rng, 4)
            da, db = dense_string(a, 4), dense_string(b, 4)
            assert a.commutes(b, "full") == np.allclose(da @ db, db @ da)


class TestPauliSum:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            PauliSum(1, {PauliString.from_label("X3"): 1.0})

    def test_like_terms_combined_and_purged(self):
        z = PauliString.from_label("Z0")
        a = PauliSum(1, [(z, 0.5), (z, 0.5), (PauliString.from_label("X0"), 1e-16)])
        assert len(a) == 1
        assert coefficient(a, z) == 1.0

    def test_self_product_identity(self):
        x = PauliSum(1, {PauliString.from_label("X0"): 1.0})
        out = sum_multiply(x, x)
        assert out.terms() == [(PauliString(), (1 + 0j))]

    def test_cross_terms_cancel(self):
        # (0.5 Z0 + 0.5 X0)^2 = 0.25(ZZ + ZX + XZ + XX) = 0.5 I; the
        # -0.25i Y and +0.25i Y cross terms cancel exactly.
        a = PauliSum(
            1,
            {
                PauliString.from_label("Z0"): 0.5,
                PauliString.from_label("X0"): 0.5,
            },
        )
        out = a @ a
        assert out.terms() == [(PauliString(), (0.5 + 0j))]

    def test_sum_multiply_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = random_sum(rng, 3, 5, hermitian=False)
            b = random_sum(rng, 3, 5, hermitian=False)
            prod = sum_multiply(a, b)
            assert np.allclose(
                dense_sum(prod), dense_sum(a) @ dense_sum(b), atol=1e-12
            )

    def test_distributivity(self):
        rng = np.random.default_rng(19)
        a = random_sum(rng, 3, 4)
        b = random_sum(rng, 3, 4)
        c = random_sum(rng, 3, 4)
        lhs = (a + b) @ c
        rhs = (a @ c) + (b @ c)
        for s, coeff in lhs.terms():
            assert abs(coeff - coefficient(rhs, s)) < 1e-12

    def test_width_mismatch_raises(self):
        a = PauliSum(2, {PauliString.from_label("X0"): 1.0})
        b = PauliSum(3, {PauliString.from_label("X0"): 1.0})
        with pytest.raises(ValueError):
            sum_multiply(a, b)
        with pytest.raises(ValueError):
            _ = a + b

    def test_truncate(self):
        a = PauliSum(
            1,
            {
                PauliString.from_label("Z0"): 1.0,
                PauliString.from_label("X0"): 5e-4,
            },
        )
        same, dropped = a.truncate(0.0)
        assert same == a and dropped == 0.0
        cut, dropped = a.truncate(1e-3)
        assert cut.terms() == [(PauliString.from_label("Z0"), (1 + 0j))]
        assert dropped == pytest.approx(5e-4)
        with pytest.raises(ValueError):
            a.truncate(-1.0)

    def test_truncation_energy_shift_bounded(self):
        # ground-energy shift from dropping terms is at most the dropped
        # 1-norm (Weyl perturbation bound), checked on random sums
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_sum(rng, 3, 12)
            cut, dropped = a.truncate(0.3)
            e_full = np.linalg.eigvalsh(dense_sum(a))[0]
            e_cut = np.linalg.eigvalsh(dense_sum(cut))[0]
            assert abs(e_full - e_cut) <= dropped + 1e-12


@st.composite
def hermitian_sums(draw):
    """Random real-coefficient sums: up to 6 qubits and 0-80 terms."""
    n = draw(st.integers(1, 6))
    # an explicit length: st.lists alone rarely draws more than ten items
    size = draw(st.integers(0, 80))
    masks = st.integers(0, (1 << n) - 1)
    terms = draw(
        st.lists(
            st.tuples(masks, masks, st.floats(-2.0, 2.0, allow_nan=False)),
            min_size=size,
            max_size=size,
        )
    )
    return PauliSum(n, [(PauliString(x, z), c) for x, z, c in terms])


@st.composite
def structured_sums(draw):
    """Sums whose strings share one span, span everything, or sit far apart.

    ``span``: many strings drawn from the GF(2) span of 1-6 random strings
    on up to 6 qubits.  ``full_rank``: X and Z on every qubit beside random
    strings, so the symplectic vectors have rank 2n.  ``sparse``: strings on
    3-5 qubits scattered over a 70-qubit register, so the active qubits are
    neither contiguous nor in one mask word.
    """
    kind = draw(st.sampled_from(["span", "full_rank", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        n = 70
        qubits = rng.choice(n, size=int(rng.integers(3, 6)), replace=False)
        masks = [sum(int(b) << int(q) for b, q in zip(bits, qubits))
                 for bits in rng.integers(0, 2, size=(2 * 40, len(qubits)))]
        pairs = list(zip(masks[::2], masks[1::2]))
    else:
        n = int(rng.integers(1, 7))
        if kind == "span":
            gens = rng.integers(0, 1 << n, size=(int(rng.integers(1, 7)), 2))
            picks = rng.integers(0, 2, size=(100, len(gens)))
            pairs = [tuple(np.bitwise_xor.reduce(gens[p == 1], axis=0, initial=0))
                     for p in picks]
        else:
            pairs = [(1 << q, 0) for q in range(n)] + [(0, 1 << q) for q in range(n)]
            pairs += [tuple(v) for v in rng.integers(0, 1 << n, size=(20, 2))]
    return PauliSum(n, [(PauliString(int(x), int(z)), rng.normal()) for x, z in pairs])


class TestGrouping:
    def test_all_z_single_set(self):
        a = PauliSum(
            2,
            {
                PauliString.from_label("Z0"): 1.0,
                PauliString.from_label("Z1"): 2.0,
                PauliString.from_label("Z0 Z1"): 3.0,
            },
        )
        assert len(a.group_commuting("full")) == 1
        assert len(a.group_commuting("qubitwise")) == 1

    def test_x_z_two_sets(self):
        a = PauliSum(
            1,
            {
                PauliString.from_label("X0"): 1.0,
                PauliString.from_label("Z0"): 1.0,
            },
        )
        assert len(a.group_commuting("full")) == 2

    def test_partition_properties_random(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = random_sum(rng, 4, 12)
            full = a.group_commuting("full")
            qw = a.group_commuting("qubitwise")
            assert isinstance(full, tuple)
            for sets, mode in ((full, "full"), (qw, "qubitwise")):
                # exact cover
                seen = [t for group in sets for t in group]
                assert sorted(
                    s.sort_key() for s, _ in seen
                ) == sorted(s.sort_key() for s, _ in a.terms())
                assert len(sets) <= len(a)
                # pairwise commutation inside each set, against the dense oracle
                for group in sets:
                    for i, (si, _) in enumerate(group):
                        for sj, _ in group[i + 1 :]:
                            assert si.commutes(sj, mode)
                            di = dense_string(si, 4)
                            dj = dense_string(sj, 4)
                            assert np.allclose(di @ dj, dj @ di)
            # qubitwise grouping can never beat full grouping
            assert len(qw) >= len(full)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        a = random_sum(rng, 4, 10)
        g1 = a.group_commuting("full")
        g2 = a.group_commuting("full")
        assert g1 == g2

    @pytest.mark.parametrize("n_terms", [0, 1, 3])
    def test_unknown_mode_rejected(self, n_terms):
        a = random_sum(np.random.default_rng(37), 2, n_terms)
        with pytest.raises(ValueError, match="unknown commutation mode"):
            a.group_commuting("sideways")

    @settings(deadline=None)
    @given(a=hermitian_sums(), mode=st.sampled_from(["full", "qubitwise"]))
    def test_matches_pairwise_reference(self, a, mode):
        assert a.group_commuting(mode) == greedy_coloring_reference(a, mode)

    @settings(deadline=None)
    @given(a=structured_sums(), mode=st.sampled_from(["full", "qubitwise"]))
    def test_matches_pairwise_reference_on_structured_sums(self, a, mode):
        assert a.group_commuting(mode) == greedy_coloring_reference(a, mode)

    # partial last blocks, and vertices whose color gained rows or axes
    # earlier in their block
    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    @pytest.mark.parametrize("block", [1, 3, 8])
    @settings(deadline=None)
    @given(a=hermitian_sums())
    def test_matches_pairwise_reference_at_any_block_size(self, block, mode, a):
        with mock.patch.object(pauli, "_COLOR_BLOCK", block):
            assert a.group_commuting(mode) == greedy_coloring_reference(a, mode)

    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    def test_matches_reference_across_mask_words(self, mode):
        # every string on qubits 0, 63 | 64, 69: supports straddle the
        # boundary between the first and second 64-bit mask word
        rng = np.random.default_rng(41)
        strings = [
            PauliString.from_support(
                {q: ax for q, ax in zip((0, 63, 64, 69), axes) if ax != "I"}
            )
            for axes in itertools.product("IXYZ", repeat=4)
        ]
        a = PauliSum(70, {s: rng.normal() for s in strings})
        assert len(a) == 256
        grouped = a.group_commuting(mode)
        assert grouped == greedy_coloring_reference(a, mode)
        assert 1 < len(grouped) < len(a)

    @pytest.mark.parametrize("mode", ["full", "qubitwise"])
    def test_matches_reference_above_the_array_threshold(self, mode):
        # 300 of the 1,024 strings on qubits 0, 62, 63 | 64, 69: canonical
        # order comes from the array sort, and the coloring's 42 (full) or
        # 104 (qubitwise) colors double its color table six or seven times
        rng = np.random.default_rng(43)
        combos = list(itertools.product("IXYZ", repeat=5))
        picks = rng.choice(len(combos), size=300, replace=False)
        strings = [
            PauliString.from_support(
                {q: ax for q, ax in zip((0, 62, 63, 64, 69), combos[i]) if ax != "I"}
            )
            for i in picks
        ]
        a = PauliSum(70, {s: rng.normal() for s in strings})
        assert len(a) == 300
        grouped = a.group_commuting(mode)
        assert grouped == greedy_coloring_reference(a, mode)
        assert 4 < len(grouped) < len(a)


# widths of one, two and three mask words; 31 and 32 put a product's
# (row, string) keys on either side of the integer/void boundary
WORD_WIDTHS = [8, 31, 32, 64, 65, 130]


def sparse_strings(rng, n, count, max_weight=4):
    """``count`` random strings of weight 0-``max_weight`` on ``n`` qubits.

    Qubits come from a small pool at the word edges, so many strings share
    their low factors and differ only past a word boundary.
    """
    pool = sorted({0, 1, n // 2, 62, 63, 64, 65, 127, 128, n - 1} & set(range(n)))
    out = []
    for _ in range(count):
        weight = rng.integers(0, min(max_weight, len(pool)) + 1)
        qubits = rng.choice(pool, size=weight, replace=False)
        out.append(PauliString.from_support(
            {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
        ))
    return out


@st.composite
def product_factors(draw):
    """``(n, a, b)``: complex term dicts for the pair loop and the array product.

    Pair counts run from 0 to 1,600.  Some
    draws add ``(αA + βB)`` and ``(αA − βB)`` for commuting Z strings A, B,
    whose cross terms ``-αβ AB`` and ``βα BA`` cancel exactly.
    """
    n = draw(st.sampled_from(WORD_WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.tuples(st.integers(0, 40), st.integers(0, 40)))

    def coeffs(k):
        return (rng.normal(size=k) + 1j * rng.normal(size=k)).tolist()

    a, b = (
        dict(zip(sparse_strings(rng, n, k), coeffs(k))) for k in sizes
    )
    if draw(st.booleans()):
        za, zb = (PauliString(0, s.z_mask) for s in sparse_strings(rng, n, 2))
        alpha, beta = coeffs(2)
        a.update({za: alpha, zb: beta})
        b.update({za: alpha, zb: -beta})
    return n, a, b


class TestArrayKernels:
    @settings(deadline=None)
    @given(case=product_factors(), block=st.integers(1, 300))
    def test_array_product_is_the_pair_loop(self, case, block):
        # small blocks split one product into many row blocks and merges
        n, a, b = case
        want = purged_product(a, b)
        with mock.patch.object(pauli, "_PRODUCT_BLOCK", block):
            got = dict((PauliSum(n, a) @ PauliSum(n, b)).items())
        assert list(got) == list(want)
        assert all(got[s] == c for s, c in want.items())
        assert PauliSum(n, got) == PauliSum(n, loop_product(a, b))

    def test_cancelled_cross_terms_are_purged(self):
        za, zb = PauliString(0, 1 << 70), PauliString(0, 0b11)
        a = {za: 0.3 + 0.1j, zb: 0.7 - 0.2j}
        b = {za: 0.3 + 0.1j, zb: -0.7 + 0.2j}
        for s in sparse_strings(np.random.default_rng(3), 130, 80):
            a.setdefault(s, 0.25)
        assert loop_product(a, b)[PauliString(0, za.z_mask ^ zb.z_mask)] == 0
        product = PauliSum(130, a) @ PauliSum(130, b)
        assert dict(product.items()) == purged_product(a, b)
        assert coefficient(product, PauliString(0, za.z_mask ^ zb.z_mask)) == 0

    def test_large_product_matches_dense(self):
        rng = np.random.default_rng(23)
        a = random_sum(rng, 3, 16, hermitian=False)
        b = random_sum(rng, 3, 12, hermitian=False)
        np.testing.assert_allclose(
            dense_sum(a @ b), dense_sum(a) @ dense_sum(b), rtol=0, atol=1e-12
        )

    @settings(deadline=None)
    @given(
        n=st.sampled_from([65, 130]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 328),
    )
    def test_terms_sort_by_sort_key(self, n, seed, size):
        rng = np.random.default_rng(seed)
        strings = sparse_strings(rng, n, size, 6)
        a = PauliSum(n, {s: 1.0 + k for k, s in enumerate(strings)})
        items = a.items()
        assert a.terms() == sorted(items, key=lambda t: t[0].sort_key())

    def test_terms_sort_prefixes_and_word_edges(self):
        labels = ["", "X0", "X0 Z1", "X0 Z70", "Y0", "Z0 X64", "Z63", "X64",
                  "Y64 Z65", "Z64", "X129", "Z0 Z63 X64 Y129"]
        strings = [PauliString.from_label(t) for t in labels]
        strings += sparse_strings(np.random.default_rng(7), 130, 400, 3)
        a = PauliSum(130, {s: 1.0 for s in reversed(strings)})
        items = a.items()
        assert a.terms() == sorted(items, key=lambda t: t[0].sort_key())

    @pytest.mark.parametrize("n", [0, 3, 70])
    def test_empty_and_identity_sums(self, n):
        empty = PauliSum(n)
        identity = PauliSum(n, {PauliString(): 2.0 - 1j})
        x = identity + PauliSum(n, {PauliString.from_label(f"Y{n - 1}"): 0.5j} if n else {})
        assert empty @ x == empty
        assert x @ empty == empty
        assert empty @ empty == empty
        assert empty.terms() == []
        assert identity.terms() == [(PauliString(), 2.0 - 1j)]
        assert (identity @ identity).terms() == [(PauliString(), (2.0 - 1j) * (2.0 - 1j))]
        assert PauliSum.from_json(identity.to_json()) == identity


def dict_sum(terms) -> dict:
    """The dict storage a sum once had: like strings added from ``0j`` in
    term order, then the sums purged."""
    out: dict = {}
    for string, c in terms:
        out[string] = out.get(string, 0j) + complex(c)
    return {s: c for s, c in out.items() if abs(c) > pauli.PURGE_TOL}


def bits_of(pairs) -> list:
    """(string, the coefficient's parts as exact hex, signed zeros kept)."""
    return [(s, c.real.hex(), c.imag.hex()) for s, c in pairs]


@st.composite
def repeated_terms(draw):
    """Terms on up to 6 qubits from a pool of at most 5 strings: repeats,
    exact cancellations and coefficients at ``PURGE_TOL``."""
    n = draw(st.integers(0, 6))
    mask = st.integers(0, 2**n - 1)
    pool = draw(st.lists(st.builds(PauliString, mask, mask), min_size=1, max_size=5))
    edge = st.sampled_from([pauli.PURGE_TOL, -pauli.PURGE_TOL, 1j * pauli.PURGE_TOL,
                            1.5 * pauli.PURGE_TOL, 0.0, -0.0, 0.5, -0.25j])
    coeff = edge | st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                      allow_infinity=False, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=14))
    if terms and draw(st.booleans()):  # cancel some terms exactly
        terms += [(s, -c) for s, c in draw(st.lists(st.sampled_from(terms), max_size=4))]
    return n, terms


class TestArrayStorage:
    """The arrays keep the dict storage's strings, order and coefficient bits."""

    @given(case=repeated_terms())
    def test_constructor_is_the_dict(self, case):
        n, terms = case
        assert bits_of(PauliSum(n, terms).items()) == bits_of(dict_sum(terms).items())

    @given(a=repeated_terms(), b=repeated_terms(), scalar=st.complex_numbers(
        max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_arithmetic_is_the_dict(self, a, b, scalar):
        n = max(a[0], b[0])
        x, y = dict_sum(a[1]), dict_sum(b[1])
        sx, sy = PauliSum(n, a[1]), PauliSum(n, b[1])
        merged = dict(x)
        for string, c in y.items():
            merged[string] = merged.get(string, 0j) + c
        assert bits_of((sx + sy).items()) == bits_of(dict_sum(merged.items()).items())
        merged = dict(x)
        for string, c in dict_sum((s, c * -1.0) for s, c in y.items()).items():
            merged[string] = merged.get(string, 0j) + c
        assert bits_of((sx - sy).items()) == bits_of(dict_sum(merged.items()).items())
        scaled = dict_sum((s, c * scalar) for s, c in x.items())
        assert bits_of((sx * scalar).items()) == bits_of(scaled.items())
        assert bits_of((scalar * sx).items()) == bits_of(scaled.items())

    @given(case=repeated_terms(), threshold=st.sampled_from(
        [0.0, pauli.PURGE_TOL, 2 * pauli.PURGE_TOL, 0.3, 1.0, 5.0]))
    def test_truncate_is_the_dict(self, case, threshold):
        n, terms = case
        kept, dropped = PauliSum(n, terms).truncate(threshold)
        want, weight = {}, 0.0
        for string, c in dict_sum(terms).items():
            if abs(c) < threshold:
                weight += abs(c)
            else:
                want[string] = c
        assert bits_of(kept.items()) == bits_of(want.items())
        assert dropped.hex() == weight.hex()

    @given(case=repeated_terms(), seed=st.integers(0, 2**32 - 1))
    def test_equality_ignores_term_order(self, case, seed):
        n, terms = case
        a = PauliSum(n, terms)
        items = list(a.items())
        order = np.random.default_rng(seed).permutation(len(items))
        assert PauliSum(n, [items[i] for i in order]) == a
        if items:
            assert PauliSum(n, [*items, (items[int(order[0])][0], 1.0)]) != a
        assert PauliSum(n + 1, items) != a

    @given(case=repeated_terms())
    def test_from_arrays_is_the_constructor(self, case):
        n, terms = case
        a = PauliSum(n, terms)
        b = PauliSum.from_arrays(n, a.x, a.z, a.coeff)
        assert bits_of(b.items()) == bits_of(a.items())
        doubled = PauliSum.from_arrays(n, np.r_[a.x, a.x], np.r_[a.z, a.z], np.r_[a.coeff, a.coeff])
        assert bits_of(doubled.items()) == bits_of((a + a).items())

    @pytest.mark.parametrize("n, x, z, coeff, message", [
        (3, [[8]], [[0]], [1.0], "term 'X3' exceeds register width 3"),
        (0, [[0]], [[1]], [1.0], "term 'Z0' exceeds register width 0"),
        (65, [[0, 2]], [[0, 0]], [1.0], "term 'X65' exceeds register width 65"),
        (64, [[1]], [[0], [0]], [1.0], "mask words must have shape"),
        (64, [[1, 0]], [[0, 0]], [1.0], "mask words must have shape"),
        (3, [[1]], [[0]], [1.0, 2.0], "mask words must have shape"),
        (-1, [[0]], [[0]], [1.0], "register width must be non-negative"),
    ], ids=["past_width", "no_qubits", "second_word", "z_rows", "extra_word",
            "coeff_rows", "negative"])
    def test_from_arrays_refuses_what_the_constructor_refuses(self, n, x, z, coeff, message):
        with pytest.raises(ValueError, match=message):
            PauliSum.from_arrays(n, x, z, coeff)

    def test_from_arrays_keeps_the_last_qubit_of_a_full_word(self):
        x = np.array([[2**63]], np.uint64)
        assert PauliSum.from_arrays(64, x, 0 * x, [2.0]).terms() == [
            (PauliString.from_label("X63"), 2 + 0j)]

    @pytest.mark.parametrize("n", [3, 64, 70])
    def test_distinct_strings_in_order_of_first_appearance(self, n):
        rng = np.random.default_rng(n)
        sums = [random_sum(rng, n, k) for k in (6, 9, 4)]
        distinct, index = pauli.distinct_strings(sums)
        terms = [s for a in sums for s, _ in a.items()]
        assert [s for s, _ in distinct.items()] == list(dict.fromkeys(terms))
        assert set(distinct.coeff.tolist()) == {1 + 0j}
        strings = [s for s, _ in distinct.items()]
        assert [strings[i] for i in index.tolist()] == terms


def row_loop(n, factors, rows, weights):
    """``Σₖ wₖ · Π factors`` one row at a time: ``@``'s oracle and the constructor."""
    pairs = []
    for row, w in zip(rows.tolist(), weights.tolist()):
        product = {PauliString(): 1 + 0j}
        for f in row:
            product = purged_product(product, dict(factors[f].items()))
        pairs.extend((s, w * c) for s, c in product.items())
    return PauliSum(n, pairs)


@st.composite
def product_rows(draw, dyadic=True):
    """``(n, factors, rows, weights)`` for :meth:`PauliSum.from_products`.

    Factors hold 0-3 terms; with ``dyadic`` their coefficients are
    multiples of 1/4 in both parts, so that a row's chains sum exactly.
    Rows hold 0-4 factors, and there are 0-30 of them.
    """
    n = draw(st.sampled_from(WORD_WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        k = int(rng.integers(0, 4))
        if dyadic:
            c = (rng.integers(-4, 5, size=k) + 1j * rng.integers(-4, 5, size=k)) / 4
        else:
            c = rng.normal(size=k) + 1j * rng.normal(size=k)
        factors.append(PauliSum(n, dict(zip(sparse_strings(rng, n, k), c.tolist()))))
    shape = (draw(st.integers(0, 30)), draw(st.integers(0, 4)))
    rows = rng.integers(0, len(factors), size=shape)
    weights = rng.normal(size=shape[0]) + 1j * draw(st.booleans()) * rng.normal(
        size=shape[0]
    )
    return n, factors, rows, weights


class TestFromProducts:
    # small blocks split each factor's product into many blocks and merges,
    # with padding pairs in most of them
    @settings(deadline=None)
    @given(case=product_rows(), block=st.integers(1, 300))
    def test_dyadic_rows_are_the_row_loop(self, case, block):
        with mock.patch.object(pauli, "_PRODUCT_BLOCK", block):
            got = PauliSum.from_products(*case)
        assert got == row_loop(*case)

    @settings(deadline=None, max_examples=40)
    @given(case=product_rows(dyadic=False), block=st.integers(1, 300))
    def test_rows_match_the_row_loop(self, case, block):
        with mock.patch.object(pauli, "_PRODUCT_BLOCK", block):
            got = PauliSum.from_products(*case)
        want = row_loop(*case)
        for s in set(dict(got.items())) | set(dict(want.items())):
            assert abs(coefficient(got, s) - coefficient(want, s)) <= 1e-12

    def test_padding_pairs_enter_no_real_key(self):
        # f holds X0 Z1 and two padding slots, so the row (g, f) meets the
        # padding pair X0 · I before the real pair Z1 · X0 Z1 ∝ X0
        g = PauliSum(2, {PauliString.from_label("X0"): 0.5,
                         PauliString.from_label("Z1"): 0.25})
        f = PauliSum(2, {PauliString.from_label("X0 Z1"): 1.0})
        wide = PauliSum(2, {PauliString.from_label(t): 1.0 for t in ("X1", "Y1", "Z0")})
        case = (2, [g, f, wide], np.array([[0, 1]]), np.ones(1))
        got = PauliSum.from_products(*case)
        assert got == row_loop(*case)
        assert len(got) == 2

    def test_no_rows(self):
        ladder = PauliSum(4, {PauliString.from_label("X1 Z0"): 0.5})
        rows = np.empty((0, 2), dtype=int)
        assert PauliSum.from_products(4, [ladder], rows, np.empty(0)) == PauliSum(4)
        assert PauliSum.from_products(4, [], rows, np.empty(0)) == PauliSum(4)

    def test_factor_width_must_match(self):
        with pytest.raises(ValueError, match="3 qubits"):
            PauliSum.from_products(3, [PauliSum(4)], np.zeros((1, 1), int), [1.0])

    def test_chains_beyond_physical_memory_refused(self, monkeypatch):
        # 3 rows of 2 factors of 2 terms hold 3 · 2² = 12 chains of one mask
        # word, each counted with its temporaries at 64 · 1 + 96 bytes
        ladder = PauliSum(2, {PauliString.from_label("X0"): 0.5,
                              PauliString.from_label("Y0"): 0.5j})
        case = (2, [ladder], np.zeros((3, 2), dtype=int), np.ones(3))
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 1919)
        with mock.patch.object(pauli, "_multiply_terms") as products:
            with pytest.raises(ValueError, match=r"12 product chains .* 1,920 bytes"):
                PauliSum.from_products(*case)
        assert not products.called
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 1920)
        assert PauliSum.from_products(*case) == row_loop(*case)


def assert_eig_matches_dense(a, vals, vecs):
    dense = dense_sum(a)
    assert vecs.dtype == np.complex128
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=1e-10)
    eye = np.eye(1 << a.n_qubits)
    np.testing.assert_allclose(vecs.conj().T @ vecs, eye, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        (vecs * vals) @ vecs.conj().T, dense, rtol=0, atol=1e-10
    )


class TestEig:
    @settings(deadline=None)
    @given(a=eig_sums(), c=st.floats(0.1, 10.0))
    def test_matches_dense_on_both_paths(self, a, c):
        vals, vecs = eig(a)
        assert_eig_matches_dense(a, vals, vecs)
        if not any(odd_y_count(s.x_mask, s.z_mask) for s, _ in a.terms()):
            # the real path casts real vectors: no imaginary part survives
            assert not np.any(vecs.imag)
        scaled = a * c
        assert_eig_matches_dense(scaled, *eig(scaled))

    def test_non_hermitian_multiple_raises(self):
        a = PauliSum(
            1,
            {PauliString.from_label("Z0"): 1.0, PauliString.from_label("X0"): 0.5},
        )
        # diagonalizing the Hermitian sum first must not spare its multiple
        # the Hermitian check
        eig(a)
        with pytest.raises(ValueError, match="Hermitian"):
            (a * 1j).blocks()


def coset_rows(a):
    """Basis indices grouped by coset of the x masks' span, by brute force."""
    span = {0}
    for s, _ in a.terms():
        span |= {v ^ s.x_mask for v in span}
    cosets = {}
    for b in range(1 << a.n_qubits):
        cosets.setdefault(min(b ^ v for v in span), []).append(b)
    return list(cosets.values())


class TestBlockedEig:
    @settings(deadline=None)
    @given(a=blocked_eig_sums())
    def test_matches_the_full_spectrum(self, a):
        vals, vecs = eig(a)
        dense = a.to_dense()
        tol = 1e-12 * a.one_norm()
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense), rtol=0, atol=tol)
        eye = np.eye(1 << a.n_qubits)
        np.testing.assert_allclose(vecs.conj().T @ vecs, eye, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense @ vecs, vecs * vals, rtol=0, atol=tol)

    @settings(deadline=None)
    @given(a=blocked_eig_sums())
    def test_blocks_are_the_dense_cosets(self, a):
        # the cells come from the strings, never from the dense matrix
        with mock.patch.object(PauliSum, "to_dense", side_effect=AssertionError):
            cells = a.blocks()
        dense = a.to_dense()
        if cells[0][1].dtype == np.float64:
            # the real path drops an imaginary part that is exactly zero
            assert not np.any(dense.imag)
            dense = dense.real
        assert {m.dtype for _, m in cells} <= {np.dtype(np.float64), np.dtype(np.complex128)}
        assert len({m.dtype for _, m in cells}) == 1
        sizes = [rows.shape[1] for rows, _ in cells]
        assert sizes == sorted(set(sizes))
        want, kept = expected_cells(a, dense)
        got = [r for rows, _ in cells for r in rows.tolist()]
        assert sorted(got) == sorted(want)
        for rows, mats in cells:
            assert np.all(np.diff(rows, axis=1) > 0)
            assert mats.shape == rows.shape + rows.shape[1:]
            # each cell is its indices' sub-matrix of to_dense, bit for bit
            for r, block in zip(rows, mats):
                assert block.tobytes() == dense[np.ix_(r, r)].tobytes()
        inside = np.zeros(dense.shape, dtype=bool)
        for r in got:
            inside[np.ix_(r, r)] = True
        # outside the cells only entries between labels, at most the bound
        assert np.all(np.abs(dense[~inside]) <= kept)

    @settings(deadline=None)
    @given(a=blocked_eig_sums())
    def test_block_eigenvalues_are_the_dense_spectrum(self, a):
        want = np.linalg.eigvalsh(a.to_dense())
        radius = float(np.max(np.abs(want)))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(m).ravel() for _, m in a.blocks()]))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * radius)


def drop_bound(a: PauliSum) -> float:
    """eps · ||A - a0 I||_1, the largest entry between labels that blocks drop."""
    return np.finfo(float).eps * sum(abs(c) for s, c in a.items() if s.x_mask | s.z_mask)


def expected_cells(a: PauliSum, dense: np.ndarray) -> tuple[list[list[int]], float]:
    """``(cells, largest entry left outside them)`` from the dense matrix.

    The cosets of :func:`coset_rows`, split by :func:`spin_label` when no
    entry between two labels exceeds :func:`drop_bound`; otherwise the
    cosets themselves, with nothing outside them.
    """
    dim = 1 << a.n_qubits
    labels = [spin_label(b) for b in range(dim)]
    between = np.array([[labels[i] != labels[j] for j in range(dim)] for i in range(dim)])
    cross = float(np.max(np.abs(dense[between]), initial=0.0))
    if cross > drop_bound(a):
        return coset_rows(a), 0.0
    cells = {}
    for rows in coset_rows(a):
        for b in rows:
            cells.setdefault((rows[0], labels[b]), []).append(b)
    return list(cells.values()), drop_bound(a)


def molecular_sum(norb: int, seed: int, scale_by: float = 1.0) -> PauliSum:
    """Jordan-Wigner sum of random integrals on 2 norb qubits, times ``scale_by``."""
    fi = random_integrals(np.random.default_rng(seed), norb, lambda r: r.normal())
    return jordan_wigner(fi) * scale_by


def assert_coset_bytes(a: PauliSum) -> None:
    """blocks() is one pair, byte for byte the coset blocks of the oracle."""
    (rows, mats), = a.blocks()
    want_rows, want_mats = coset_blocks(a)
    assert rows.tobytes() == want_rows.tobytes() and rows.shape == want_rows.shape
    assert mats.dtype == want_mats.dtype and mats.shape == want_mats.shape
    assert mats.tobytes() == want_mats.tobytes()


class TestSpinCells:
    @settings(deadline=None, max_examples=12)
    @given(norb=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_molecular_cells_hold_the_dense_spectrum(self, norb, seed):
        h = molecular_sum(norb, seed)
        cells = h.blocks()
        want = np.linalg.eigvalsh(dense_sum(h))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(m).ravel() for _, m in cells]))
        radius = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * radius)
        # one cell per (N_alpha, N_beta) sector: C(norb, a) C(norb, b) rows
        sizes = sorted(math.comb(norb, i) * math.comb(norb, j)
                       for i in range(norb + 1) for j in range(norb + 1))
        assert sorted(rows.shape[1] for rows, _ in cells for _ in rows) == sizes
        for rows, _ in cells:
            for r in rows.tolist():
                assert len({spin_label(b) for b in r}) == 1

    def test_cross_sector_term_above_the_bound_takes_the_cosets(self):
        # scaled up, the sum's bound clears the purge threshold; one X0
        # flips N_alpha with an entry of 4 bounds, and then of 1/4 bound
        h = molecular_sum(3, 7, scale_by=1e4)
        for factor, cosets in ((4.0, True), (0.25, False)):
            x0 = PauliSum(6, {PauliString(1, 0): factor * drop_bound(h)})
            a = h + x0
            assert len(a) == len(h) + 1
            if cosets:
                assert_coset_bytes(a)
            else:
                # the entry is dropped: the 16 sectors remain
                assert sum(len(rows) for rows, _ in a.blocks()) == 16

    def test_toy_and_tapered_operators_take_the_cosets(self):
        toy = PauliSum.from_json((FIXTURES / "toy_3q.json").read_text())
        fi = parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text())
        tapered = taper_z2(jordan_wigner(fi), 0b0011).reduced
        for a in (toy, tapered):
            assert_coset_bytes(a)

    @settings(deadline=None)
    @given(a=eig_sums())
    def test_random_sums_take_the_cosets_unless_they_keep_the_labels(self, a):
        dense = a.to_dense()
        cells, kept = expected_cells(a, dense)
        if kept == 0.0:
            assert_coset_bytes(a)
        else:
            got = [r for rows, _ in a.blocks() for r in rows.tolist()]
            assert sorted(got) == sorted(cells)


class TestDenseMemoryCheck:
    def test_to_dense_refuses_more_than_physical_memory(self, monkeypatch):
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 1000)
        a = PauliSum(3, {PauliString.from_label("Z0"): 1.0})
        # one 8x8 complex128 matrix is 1,024 bytes, and 96 bytes for each
        # of the 8 amplitudes 768 more
        with pytest.raises(ValueError, match=r"1,792 bytes.*1,000 bytes"):
            a.to_dense()

    @pytest.mark.parametrize("label, need", [("Z0 X1", 2560), ("Y0", 2816)])
    def test_eig_counts_copies_and_vectors(self, monkeypatch, label, need):
        # 3 qubits: the string moves electrons between sectors, so the cells
        # are the 4 cosets of 2 x 2, which take 128 bytes on the real path
        # and 256 on the complex one, the eigenvectors an eigh returns
        # beside them as many again, the index arrays 256 bytes for each of
        # the 8 indices and the sorted terms 256 bytes for the one term; one
        # byte short of both refuses, after the 12 entries at most of the
        # sector cells passed their check
        memory = need - 1
        monkeypatch.setattr(pauli, "_physical_memory", lambda: memory)
        a = PauliSum(3, {PauliString.from_label(label): 1.0})
        with pytest.raises(ValueError, match=rf" {need:,} bytes.* {memory:,} bytes"):
            a.blocks()
        with pytest.raises(ValueError, match="physical memory"):
            scale(a)
        monkeypatch.setattr(pauli, "_physical_memory", lambda: memory + 1)
        (_, mats), = a.blocks()
        assert mats.nbytes == (need - 256 * (8 + 1)) // 2

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(pauli, "_physical_memory", lambda: None)
        a = PauliSum(2, {PauliString.from_label("Z0 Z1"): 1.0})
        assert scale(a).h1 == pytest.approx(4.0 / math.pi)


def spectral_norm(a: PauliSum) -> float:
    """max |eig(A - a0 I)| as :func:`gsee.qcels.scale` computes it."""
    return scale(a).h1 * math.pi / 4.0


class TestSpectralNorm:
    """The spectral norm that :func:`gsee.qcels.scale` takes as ``h1``."""

    def test_single_string(self):
        a = PauliSum(1, {PauliString.from_label("Z0"): 1.0})
        assert spectral_norm(a) == pytest.approx(1.0)

    def test_two_term_hand_value(self):
        a = PauliSum(
            1,
            {
                PauliString.from_label("Z0"): 0.5,
                PauliString.from_label("X0"): 0.5,
            },
        )
        # eigenvalues are +/- sqrt(0.25 + 0.25)
        assert spectral_norm(a) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_matches_dense_and_one_norm_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            a = random_sum(rng, 3, 6)
            a0 = a.identity_coefficient
            dense = np.linalg.eigvalsh(dense_sum(a) - a0 * np.eye(8))
            assert spectral_norm(a) == pytest.approx(
                np.max(np.abs(dense)), abs=1e-10
            )
            assert spectral_norm(a) <= a.one_norm() - abs(a0) + 1e-12


def span(rows):
    """Every XOR combination of ``rows``, by enumeration."""
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


gf2_rows = st.integers(1, 8).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, (1 << width) - 1), max_size=8),
    )
)


class TestGf2Reduce:
    @given(gf2_rows)
    def test_pivots_are_the_rank_and_reduced(self, case):
        _, rows = case
        pivots, _ = pauli.gf2_reduce(rows)
        assert 1 << len(pivots) == len(span(rows))
        for col, row in pivots.items():
            assert row & -row == 1 << col
            assert sum((r >> col) & 1 for r in pivots.values()) == 1

    @given(gf2_rows)
    def test_reduced_rows_span_the_input(self, case):
        _, rows = case
        pivots, dependent = pauli.gf2_reduce(rows)
        assert span(pivots.values()) == span(rows)
        assert dependent == [
            i for i, row in enumerate(rows) if row in span(rows[:i])
        ]

    @given(gf2_rows)
    def test_tapering_nullspace(self, case):
        width, rows = case
        basis = _gf2_nullspace(rows, width)
        assert len(basis) == width - len(pauli.gf2_reduce(rows)[0])
        assert len(span(basis)) == 1 << len(basis)
        for v in basis:
            assert all((v & row).bit_count() % 2 == 0 for row in rows)


class TestSerialization:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a = random_sum(rng, 4, 8, hermitian=False)
            b = PauliSum.from_json(a.to_json())
            assert b.n_qubits == a.n_qubits
            assert b.terms() == a.terms()

    def test_identity_term_empty_string(self):
        a = PauliSum(2, {PauliString(): 0.25 - 0.5j})
        payload = json.loads(a.to_json())
        assert payload["terms"][0]["paulis"] == ""
        assert payload["terms"][0]["coeff"] == [0.25, -0.5]
        assert PauliSum.from_json(a.to_json()) == a

    @pytest.mark.parametrize("label", [
        "", "X0", "x0 y1 z2", "Z12  X3", " X0\tY1\n", "X0\u00a0Y1", "X007 Y1",
        "X" + "0" * 20 + "5", "Y70 Z64 X63", "X4294967296", "X123456789012345678901234",
        "X\u0663", "X\u00b2", "\u00dc0", "Q1", "X", "X0.5", "X-1", "X+1", "X0 , Y1", ",",
        "X0 Y0", "X3 Y5 Z5 X3", "X0 X0 Q1", "Q1 X0 X0", "X0 Q0 X0", "X1 Z1 Y1",
    ])
    def test_from_json_parses_labels_as_from_label_does(self, label):
        """One parser serves both: each label gives the same string or the same error."""
        try:
            string = PauliString.from_label(label)
        except ValueError as error:
            payload = {"n_qubits": 100, "terms": [
                {"coeff": [1.0, 0.0], "paulis": "Z0"}, {"coeff": [1.0, 0.0], "paulis": label}]}
            with pytest.raises(ValueError) as caught:
                PauliSum.from_json(json.dumps(payload))
            assert str(caught.value) == str(error)
        else:
            payload = {"n_qubits": string.min_width, "terms": [
                {"coeff": [0.5, 0.0], "paulis": label}]}
            assert PauliSum.from_json(json.dumps(payload)).items() == [(string, 0.5 + 0j)]

    @pytest.mark.parametrize("label, message", [
        ("X3 Y5 Z5 X3", "qubit 5 appears twice in 'X3 Y5 Z5 X3'"),
        ("X0 X0 Q1", "qubit 0 appears twice in 'X0 X0 Q1'"),
        ("Q1 X0 X0", "malformed Pauli token 'Q1'"),
        ("X0 , Y1", "malformed Pauli token ','"),
        ("X\u0663", "malformed Pauli token 'X\u0663'"),
        ("X4294967296", "malformed Pauli token 'X4294967296'"),
    ])
    def test_label_errors_name_the_first_fault(self, label, message):
        with pytest.raises(ValueError) as caught:
            PauliString.from_label(label)
        assert str(caught.value) == message

    def test_from_json_names_the_first_faulty_label(self):
        labels = ["Z0", "X1 X1", "Q2", "Y0 Y0"]
        payload = {"n_qubits": 3, "terms": [{"coeff": [1.0, 0.0], "paulis": t} for t in labels]}
        with pytest.raises(ValueError, match="qubit 1 appears twice in 'X1 X1'"):
            PauliSum.from_json(json.dumps(payload))

    @pytest.mark.parametrize("width", [4.5, 4.0, "4", True, None])
    def test_n_qubits_must_be_a_json_integer(self, width):
        payload = json.loads(PauliSum(4, {PauliString.from_label("Z3"): 1.0}).to_json())
        payload["n_qubits"] = width
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            PauliSum.from_json(json.dumps(payload))
