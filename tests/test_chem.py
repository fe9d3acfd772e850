"""Ingestion, mapping, tapering, and initial-state tests on dense oracles."""

import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coefficient,
    dense_string,
    dense_sum,
    jordan_wigner_reference,
    random_integrals,
)
from gsee.chem import (
    Determinant,
    FermionIntegrals,
    ci_initial_state,
    determinants_from_json,
    fix_qubits,
    jordan_wigner,
    parse_fcidump,
    taper_state,
    taper_z2,
)
from gsee.pauli import PauliString, PauliSum
from gsee.simulator import StateVector, expectation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"


def load_h2(stem="h2_eq"):
    return parse_fcidump((FIXTURES / f"{stem}.fcidump").read_text())


def load_h2_ci(stem="h2_eq"):
    return determinants_from_json((FIXTURES / f"{stem}_ci.json").read_text())


def sector_indices(n_qubits, nelec):
    return [b for b in range(1 << n_qubits) if bin(b).count("1") == nelec]


class TestParseFcidump:
    def test_header_fields(self):
        fi = load_h2()
        assert (fi.norb, fi.nelec, fi.ms2) == (2, 2, 0)
        assert fi.core_energy == pytest.approx(0.713725, abs=1e-6)

    def test_eightfold_symmetry_populated(self):
        fi = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.75 2 1 2 1\n")
        for idx in [
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
        ]:
            assert fi.two_body[idx] == 0.75

    def test_one_body_symmetric(self):
        fi = parse_fcidump("&FCI NORB=2,NELEC=2\n/\n-0.3 2 1 0 0\n")
        assert fi.one_body[1, 0] == fi.one_body[0, 1] == -0.3

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_fcidump("NORB=2\n")
        with pytest.raises(ValueError, match="terminated"):
            parse_fcidump("&FCI NORB=2,NELEC=2\n0.1 1 1 0 0\n")
        with pytest.raises(ValueError, match="lacks NELEC"):
            parse_fcidump("&FCI NORB=2\n&END\n")
        with pytest.raises(ValueError, match="out of range"):
            parse_fcidump("&FCI NORB=2,NELEC=2\n&END\n0.1 3 1 0 0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            parse_fcidump("&FCI NORB=2,NELEC=2\n&END\nabc 1 1 0 0\n")
        with pytest.raises(ValueError, match="value i j k l"):
            parse_fcidump("&FCI NORB=2,NELEC=2\n&END\n0.1 1 1\n")

    def test_fortran_exponent_accepted(self):
        fi = parse_fcidump("&FCI NORB=1,NELEC=1\n&END\n0.5D+01 1 1 0 0\n")
        assert fi.one_body[0, 0] == 5.0


class TestJordanWigner:
    def test_number_operator(self):
        fi = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1\n&END\n1.0 1 1 0 0\n")
        h = jordan_wigner(fi)
        # a+a on each spin orbital: 0.5 I - 0.5 Z per qubit
        want = PauliSum(
            2,
            {
                PauliString.from_label(""): 1.0,
                PauliString.from_label("Z0"): -0.5,
                PauliString.from_label("Z1"): -0.5,
            },
        )
        assert h == want

    def test_hopping_term(self):
        fi = parse_fcidump("&FCI NORB=2,NELEC=1,MS2=1\n&END\n1.0 2 1 0 0\n")
        h = jordan_wigner(fi)
        # alpha qubits are 0 and 2 with a Z string across qubit 1
        assert coefficient(h, PauliString.from_label("X0 Z1 X2")) == pytest.approx(0.5)
        assert coefficient(h, PauliString.from_label("Y0 Z1 Y2")) == pytest.approx(0.5)

    def test_real_hermitian_output(self):
        h = jordan_wigner(load_h2())
        assert h.is_hermitian(1e-12)
        assert all(abs(c.imag) < 1e-12 for _, c in h.terms())

    def test_h2_fci_energy_in_two_electron_sector(self):
        h = jordan_wigner(load_h2())
        dense = dense_sum(h)
        sector = sector_indices(4, 2)
        vals = np.linalg.eigvalsh(dense[np.ix_(sector, sector)])
        assert vals[0] == pytest.approx(-1.137270, abs=1e-6)

    def test_h2_ci_matrix_reproduced(self):
        # independent oracle: the closed-shell CI matrix from raw integrals
        fi = load_h2()
        h = jordan_wigner(fi)
        dense = dense_sum(h)
        e = fi.core_energy
        h11 = 2 * fi.one_body[0, 0] + fi.two_body[0, 0, 0, 0] + e
        h22 = 2 * fi.one_body[1, 1] + fi.two_body[1, 1, 1, 1] + e
        h12 = fi.two_body[0, 1, 0, 1]
        assert dense[0b0011, 0b0011].real == pytest.approx(h11, abs=1e-10)
        assert dense[0b1100, 0b1100].real == pytest.approx(h22, abs=1e-10)
        assert abs(dense[0b0011, 0b1100]) == pytest.approx(abs(h12), abs=1e-10)

    def test_particle_number_commutes(self):
        h = jordan_wigner(load_h2())
        number = PauliSum(
            4,
            {PauliString.from_label(""): 2.0}
            | {PauliString.from_label(f"Z{q}"): -0.5 for q in range(4)},
        )
        hd, nd = dense_sum(h), dense_sum(number)
        assert np.linalg.norm(hd @ nd - nd @ hd) < 1e-10


def dense_or_tiny(rng):
    """Zero, an entry within a few ulp of the 1e-14 cut, or an ordinary one."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return 0.0
    if kind == 1:
        cut = rng.choice([0.5, 1 - 1e-15, 1.0, 1 + 1e-15, 2.0]) * 1e-14
        return float(rng.choice([-1, 1]) * cut)
    return float(rng.normal(scale=0.5))


class TestJordanWignerOracle:
    """The one-pass map against the term-at-a-time map, byte for byte."""

    @settings(deadline=None, max_examples=60)
    @given(norb=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_random_integrals(self, norb, seed):
        fi = random_integrals(np.random.default_rng(seed), norb, dense_or_tiny)
        assert jordan_wigner(fi).to_json() == jordan_wigner_reference(fi).to_json()

    def test_sparse_integrals_across_mask_words(self):
        # norb 33 is 66 qubits in two mask words; orbitals 31 and 32 hold
        # qubits 62-65, either side of the word edge
        norb, orbitals = 33, [0, 1, 15, 30, 31, 32]
        rng = np.random.default_rng(11)
        one, two = np.zeros((norb, norb)), np.zeros((norb,) * 4)
        for p, q in itertools.combinations_with_replacement(orbitals, 2):
            one[p, q] = one[q, p] = rng.normal()
        for p, q, r, s in itertools.product(orbitals, repeat=4):
            if rng.random() < 0.1:
                v = rng.normal()
                for a, b in ((p, q), (q, p)):
                    for c, d in ((r, s), (s, r)):
                        two[a, b, c, d] = two[c, d, a, b] = v
        fi = FermionIntegrals(norb, 0, 0, -1.5, one, two)
        h = jordan_wigner(fi)
        assert h.n_qubits == 66 and len(h) > 100
        assert h.to_json() == jordan_wigner_reference(fi).to_json()

    def test_core_energy_only(self):
        fi = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0\n&END\n-0.75 0 0 0 0\n")
        assert jordan_wigner(fi) == PauliSum(4, {PauliString(): -0.75})
        assert jordan_wigner(fi).to_json() == jordan_wigner_reference(fi).to_json()

    def test_no_two_body_entries(self):
        fi = parse_fcidump(
            "&FCI NORB=3,NELEC=2,MS2=0\n&END\n"
            "0.5 1 1 0 0\n-0.25 3 1 0 0\n0.125 2 2 0 0\n1.5 0 0 0 0\n"
        )
        h = jordan_wigner(fi)
        assert h.to_json() == jordan_wigner_reference(fi).to_json()
        # sum_p h_pp (I - Z_2p)/2 per spin, plus the core
        assert coefficient(h, PauliString()) == 1.5 + 0.5 + 0.125
        assert coefficient(h, PauliString.from_label("X0 Z1 Z2 Z3 X4")) == -0.125


class TestFixQubits:
    def test_projection_semantics(self):
        h = PauliSum(
            3,
            {
                PauliString.from_label("Z0 Z1"): 2.0,
                PauliString.from_label("X1"): 3.0,
                PauliString.from_label("Z2"): 5.0,
                PauliString.from_label(""): 1.0,
            },
        )
        out = fix_qubits(h, {1: ("Z", -1)})
        want = PauliSum(
            2,
            {
                PauliString.from_label("Z0"): -2.0,
                PauliString.from_label("Z1"): 5.0,
                PauliString.from_label(""): 1.0,
            },
        )
        assert out == want

    def test_matches_dense_projection(self):
        rng = np.random.default_rng(17)
        from helpers import random_sum

        h = random_sum(rng, 3, 8)
        out = fix_qubits(h, {1: ("Z", 1)})
        # dense restriction to qubit-1 = |0>
        full = dense_sum(h)
        keep = [b for b in range(8) if not (b >> 1) & 1]
        reduced_idx = [((b & 1) | ((b >> 2) << 1)) for b in keep]
        order = np.argsort(reduced_idx)
        sub = full[np.ix_(keep, keep)][np.ix_(order, order)]
        assert np.linalg.norm(dense_sum(out) - sub) < 1e-10

    def test_validation(self):
        h = PauliSum(2, {PauliString.from_label("Z0"): 1.0})
        with pytest.raises(ValueError, match="outside register"):
            fix_qubits(h, {5: ("Z", 1)})
        with pytest.raises(ValueError, match="assignment"):
            fix_qubits(h, {0: ("Q", 1)})
        with pytest.raises(ValueError, match="assignment"):
            fix_qubits(h, {0: ("Z", 2)})


class TestTaperZ2:
    def all_z_example(self):
        return PauliSum(
            2,
            {
                PauliString.from_label("Z0"): 0.7,
                PauliString.from_label("Z1"): -0.4,
                PauliString.from_label("Z0 Z1"): 0.25,
            },
        )

    def test_all_z_reduces_to_constant(self):
        h = self.all_z_example()
        report = taper_z2(h, 0b00)
        assert len(report.generators) == 2
        assert report.reduced.n_qubits == 0
        got = report.reduced.identity_coefficient.real
        assert got == pytest.approx(0.7 - 0.4 + 0.25, abs=1e-12)

    def test_sector_signs_follow_reference(self):
        h = self.all_z_example()
        report = taper_z2(h, 0b01)
        # <01|H|01>: Z0 -> -1, Z1 -> +1, Z0Z1 -> -1
        got = report.reduced.identity_coefficient.real
        assert got == pytest.approx(-0.7 - 0.4 - 0.25, abs=1e-12)

    @pytest.mark.parametrize("reference", [0b00, 0b01, 0b11])
    def test_tapered_constant_is_the_reference_energy_exactly(self, reference):
        # no rounded sqrt(1/2) enters: the constant is <ref|H|ref> summed
        # in canonical term order, to the last bit
        h = self.all_z_example()
        want = 0.0
        for string, coeff in h.terms():
            want += coeff.real * (-1.0 if (reference & string.z_mask).bit_count() & 1 else 1.0)
        assert taper_z2(h, reference).reduced.identity_coefficient.real == want

    def test_h2_default_kernel_has_three_generators(self):
        h = jordan_wigner(load_h2())
        report = taper_z2(h, 0b0011)
        assert len(report.generators) == 3
        assert report.reduced.n_qubits == 1
        for g in report.generators:
            assert g.x_mask == 0
            assert all(g.commutes(s) for s, _ in h.terms())
        vals = np.linalg.eigvalsh(dense_sum(report.reduced))
        assert vals[0] == pytest.approx(-1.137270, abs=1e-6)

    def test_h2_spin_parity_generators_give_two_qubits(self):
        h = jordan_wigner(load_h2())
        gens = [PauliString.from_label("Z0 Z2"), PauliString.from_label("Z1 Z3")]
        report = taper_z2(h, 0b0011, generators=gens)
        assert report.reduced.n_qubits == 2
        assert report.sector_signs == (-1, -1)
        # ground energy in the reduced space equals the sector ground energy
        vals = np.linalg.eigvalsh(dense_sum(report.reduced))
        sector = sector_indices(4, 2)
        full = dense_sum(h)
        sector_vals = np.linalg.eigvalsh(full[np.ix_(sector, sector)])
        assert vals[0] == pytest.approx(sector_vals[0], abs=1e-10)

    def test_sector_eigenvalues_preserved(self):
        # the reduced spectrum must equal the dense spectrum restricted to
        # the joint symmetry sector chosen by the reference
        h = jordan_wigner(load_h2())
        report = taper_z2(h, 0b0011)
        full = dense_sum(h)
        projector = np.eye(16)
        for g, s in zip(report.generators, report.sector_signs):
            projector = projector @ (np.eye(16) + s * dense_string(g, 4)) / 2.0
        in_sector = [b for b in range(16) if abs(projector[b, b] - 1.0) < 1e-12]
        want = np.sort(np.linalg.eigvalsh(full[np.ix_(in_sector, in_sector)]))
        got = np.sort(np.linalg.eigvalsh(dense_sum(report.reduced)))
        assert np.allclose(got, want, atol=1e-10)

    def test_noncommuting_generator_rejected(self):
        h = PauliSum(1, {PauliString.from_label("X0"): 1.0})
        with pytest.raises(ValueError, match="commute"):
            taper_z2(h, 0, generators=[PauliString.from_label("Z0")])

    def test_x_symmetry_needs_eigenvector_reference(self):
        # H = X0 commutes with X0, but a determinant is not its eigenvector
        h = PauliSum(1, {PauliString.from_label("X0"): 1.0})
        with pytest.raises(ValueError, match="eigenvector"):
            taper_z2(h, 0)

    def test_dependent_generators_rejected(self):
        h = self.all_z_example()
        gens = [
            PauliString.from_label("Z0"),
            PauliString.from_label("Z1"),
            PauliString.from_label("Z0 Z1"),
        ]
        with pytest.raises(ValueError, match="independent"):
            taper_z2(h, 0, generators=gens)


class TestTaperState:
    def test_energy_preserved_through_tapering(self):
        h = jordan_wigner(load_h2())
        _, dets = load_h2_ci()
        psi = ci_initial_state(dets, 0.0, 4)
        gens = [PauliString.from_label("Z0 Z2"), PauliString.from_label("Z1 Z3")]
        report = taper_z2(h, 0b0011, generators=gens)
        reduced_psi = taper_state(report, psi)
        assert reduced_psi.n_qubits == 2
        before = expectation(psi, h).real
        after = expectation(reduced_psi, report.reduced).real
        assert after == pytest.approx(before, abs=1e-10)

    def test_ground_state_maps_to_reduced_ground_state(self):
        h = jordan_wigner(load_h2())
        report = taper_z2(h, 0b0011)
        sector = sector_indices(4, 2)
        full = dense_sum(h)
        w, v = np.linalg.eigh(full[np.ix_(sector, sector)])
        amps = np.zeros(16, dtype=complex)
        amps[sector] = v[:, 0]
        reduced_psi = taper_state(report, StateVector(4, amps))
        energy = expectation(reduced_psi, report.reduced).real
        assert energy == pytest.approx(w[0], abs=1e-10)

    @pytest.mark.parametrize("stem, reference, labels", [
        ("h2_eq", 0b0011, None),
        ("h2_eq", 0b0011, ("Z0 Z2", "Z1 Z3")),
        ("h2_stretched", 0b0011, None),
        ("spin_polarized", 0b00010101, None),
    ])
    def test_matches_dense_cliffords_and_projection(self, stem, reference, labels):
        h = jordan_wigner(load_h2(stem))
        gens = None if labels is None else [PauliString.from_label(g) for g in labels]
        report = taper_z2(h, reference, generators=gens)
        n, dim = h.n_qubits, 1 << h.n_qubits
        rng = np.random.default_rng(11)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for g, s in zip(report.generators, report.sector_signs):
            amps = (amps + s * dense_string(g, n) @ amps) / 2.0  # into the sector
        amps /= np.linalg.norm(amps)
        want = amps
        for g, pivot in zip(report.generators, report.pivots):
            u = dense_string(g, n) + dense_string(PauliString(1 << pivot, 0), n)
            want = u @ want / np.sqrt(2.0)
        # each pivot onto (|0> + s|1>)/sqrt(2); axis n-1-q of the tensor is qubit q
        want = want.reshape((2,) * n)
        for pivot, s in sorted(zip(report.pivots, report.sector_signs), reverse=True):
            want = np.tensordot(want, np.array([1.0, s]) / np.sqrt(2.0), ([n - 1 - pivot], [0]))
            n -= 1
        got = taper_state(report, StateVector(h.n_qubits, amps))
        assert got.n_qubits == report.reduced.n_qubits
        assert np.allclose(got.amplitudes, want.ravel(), rtol=0.0, atol=1e-12)

    def test_out_of_sector_state_rejected(self):
        h = jordan_wigner(load_h2())
        report = taper_z2(h, 0b0011)
        with pytest.raises(ValueError, match="sector"):
            taper_state(report, StateVector.basis_state(4, 0b0111))


class TestCiInitialState:
    def test_single_determinant(self):
        psi = ci_initial_state([Determinant(0b0011, 0.4)], 0.03, 4)
        assert psi.amplitudes[0b0011] == pytest.approx(1.0)

    def test_threshold_drops_small_coefficients(self):
        dets = [Determinant(0, 0.9995), Determinant(3, 0.01)]
        psi = ci_initial_state(dets, 0.03, 2)
        assert psi.amplitudes[0] == pytest.approx(1.0)
        assert psi.amplitudes[3] == 0.0

    def test_h2_ci_fidelity_against_dense_ground_state(self):
        h = jordan_wigner(load_h2())
        _, dets = load_h2_ci()
        psi = ci_initial_state(dets, 0.03, 4)
        vals, vecs = np.linalg.eigh(dense_sum(h))
        fidelity = abs(vecs[:, 0].conj() @ psi.amplitudes) ** 2
        assert fidelity >= 0.96
        # both fixture determinants are above 0.03, so this state is the
        # exact in-sector ground state
        assert fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("norb", [2.7, 2.0, "2", True, None])
    def test_norb_must_be_a_json_integer(self, norb):
        def text(norb):
            return json.dumps({"norb": norb, "dets": [{"mask": "11", "coeff": 1.0}]})

        with pytest.raises(ValueError, match="norb must be an integer"):
            determinants_from_json(text(norb))
        assert determinants_from_json(text(2))[0] == 2

    def test_empty_after_threshold_rejected(self):
        with pytest.raises(ValueError, match="survive"):
            ci_initial_state([Determinant(0, 0.01)], 0.03, 2)

    def test_unit_norm(self):
        dets = [Determinant(1, 0.3), Determinant(2, -0.7)]
        psi = ci_initial_state(dets, 0.0, 2)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_over_wide_register_rejected_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError(f"np.zeros{args} allocated")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match="register width must be in 1..20"):
            ci_initial_state([Determinant(0b11, 1.0)], 0.0, 22)
        with pytest.raises(ValueError, match="register width must be in 1..20"):
            StateVector.basis_state(21, 0)



class TestSpinPolarizedFixture:
    def test_beta_removal_matches_dense_restriction(self):
        fi = parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text())
        assert (fi.norb, fi.nelec, fi.ms2) == (4, 3, 3)
        h = jordan_wigner(fi)
        assert h.n_qubits == 8
        reduced = fix_qubits(h, {q: ("Z", 1) for q in (1, 3, 5, 7)})
        assert reduced.n_qubits == 4
        # the restriction keeps hopping terms between alpha orbitals
        assert any(s.x_mask for s, _ in reduced.terms())
        full = dense_sum(h)
        beta_empty = [
            b for b in range(256) if not (b & 0b10101010)
        ]
        reduced_idx = [
            (b & 1)
            | (((b >> 2) & 1) << 1)
            | (((b >> 4) & 1) << 2)
            | (((b >> 6) & 1) << 3)
            for b in beta_empty
        ]
        order = np.argsort(reduced_idx)
        sub = full[np.ix_(beta_empty, beta_empty)][np.ix_(order, order)]
        assert np.linalg.norm(dense_sum(reduced) - sub) < 1e-10
