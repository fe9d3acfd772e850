"""Each memory check against the tracemalloc peak of the call it guards.

A check that counts less than the call allocates lets a machine with too
little memory pass it and still run out, so every estimate must be at
least the measured peak; at most three times that peak keeps it from
refusing work that fits.
"""

import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from helpers import random_integrals, random_state, random_sum
from gsee import cli, pauli, qcels
from gsee.chem import FermionIntegrals, jordan_wigner, parse_fcidump
from gsee.pauli import PauliString, PauliSum
from gsee.qcels import scale
from gsee.qcm4 import bootstrap, build_moments, estimate, plan
from gsee.simulator import StateVector

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"


def checked_peak(monkeypatch, call) -> tuple[list[int], int]:
    """``(bytes of each check, tracemalloc peak)`` of ``call()``."""
    checked = []
    real = pauli.check_memory

    def spy(n_bytes, what):
        checked.append(n_bytes)
        real(n_bytes, what)

    for module in (pauli, qcels):
        monkeypatch.setattr(module, "check_memory", spy)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return checked, peak


def assert_covers(monkeypatch, call) -> None:
    """``call`` makes one check, and it holds the peak between 1x and 3x."""
    (estimate,), peak = checked_peak(monkeypatch, call)
    assert peak <= estimate <= 3 * peak, (estimate, peak)


def z_sum(n_qubits: int, x_on_0: bool) -> PauliSum:
    """Z on every qubit: 1-row blocks, or 2-row ones with an X on qubit 0."""
    terms = {PauliString(0, 1 << q): 0.1 * (q + 1) for q in range(n_qubits)}
    if x_on_0:
        terms[PauliString(1, 0)] = 0.3
    return PauliSum(n_qubits, terms)


def molecular(norb: int) -> PauliSum:
    """The seed-0 operator of dense random integrals on 2 · norb qubits."""
    return jordan_wigner(
        random_integrals(np.random.default_rng(0), norb, lambda r: r.normal())
    )


@pytest.mark.parametrize("x_on_0", [False, True])
def test_blocks_at_12_qubits(monkeypatch, x_on_0):
    a = z_sum(12, x_on_0)
    (rows, _), = a.blocks()
    assert rows.shape[1] == 1 + x_on_0
    assert_covers(monkeypatch, a.blocks)


@pytest.mark.parametrize("norb", [4, 5])
def test_blocks_in_sector_cells(monkeypatch, norb):
    # the (N_alpha, N_beta) cells of a molecular operator: C(2 norb, norb)^2
    # entries, beside index arrays of 2^(2 norb)
    a = molecular(norb)
    assert sum(m.size for _, m in a.blocks()) == math.comb(2 * norb, norb) ** 2
    assert_covers(monkeypatch, a.blocks)


def test_scale_on_a_10_qubit_molecular_operator(monkeypatch):
    h = molecular(5)
    assert h.n_qubits == 10
    psi = StateVector(10, random_state(np.random.default_rng(1), 10))
    # psi has weight in every cell: the blocks' check counts the cells and
    # their eigenvectors, and psi's check the gathered cells and the
    # vectors' complex copy; together they hold the whole call's peak
    (cells, vectors), peak = checked_peak(monkeypatch, lambda: scale(h, psi))
    assert peak <= cells + vectors <= 3 * peak, (cells, vectors, peak)


@pytest.mark.parametrize("norb", [4, 6])
def test_jordan_wigner_on_dense_integrals(monkeypatch, norb):
    fi = random_integrals(np.random.default_rng(0), norb, lambda r: r.normal())
    assert_covers(monkeypatch, lambda: jordan_wigner(fi))


def test_jordan_wigner_on_two_mask_words(monkeypatch):
    # norb 33 is 66 qubits, W = 2: dense one-body and Coulomb (pp|rr) terms
    norb = 33
    rng = np.random.default_rng(0)
    one, coulomb = (m + m.T for m in rng.normal(size=(2, norb, norb)))
    two = np.zeros((norb,) * 4)
    p, r = np.indices((norb, norb))
    two[p, p, r, r] = coulomb
    fi = FermionIntegrals(norb, 0, 0, 0.5, one, two)
    assert_covers(monkeypatch, lambda: jordan_wigner(fi))


@pytest.mark.parametrize("case", ["molecular", "1-row"])
def test_projection_onto_the_blocks(monkeypatch, case):
    # scale past the blocks, every block live: the gathered cells and
    # vectors dominate on the molecular operator's 4 blocks of 256, the
    # 2^n-long amplitudes on 1-row blocks
    h = molecular(5) if case == "molecular" else z_sum(12, False)
    n = h.n_qubits
    psi = StateVector(n, random_state(np.random.default_rng(1), n))
    cells = (h - PauliSum(n, {PauliString(): h.identity_coefficient.real})).blocks()
    monkeypatch.setattr(PauliSum, "blocks", lambda self: cells)
    assert_covers(monkeypatch, lambda: scale(h, psi))


def test_to_dense_at_10_qubits(monkeypatch):
    # the 2^n-long arrays of a term beside the 16 MB matrix
    assert_covers(monkeypatch, molecular(5).to_dense)


def fixture_strings() -> PauliSum:
    """The 5,459 distinct strings of H…H⁴ on the 8-qubit fixture."""
    h = jordan_wigner(parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text()))
    powers = build_moments(h).powers
    distinct = {s for p in powers for s, _ in p.terms() if s.x_mask | s.z_mask}
    return PauliSum(8, dict.fromkeys(distinct, 1.0))


@pytest.mark.parametrize("mode", ["full", "qubitwise"])
@pytest.mark.parametrize("case", ["8-qubit moments", "10 qubits, 100 terms"])
def test_group_commuting(monkeypatch, mode, case):
    # the terms dominate the first, the 4^10 table the second
    if case == "8-qubit moments":
        a = fixture_strings()
    else:
        a = random_sum(np.random.default_rng(0), 10, 100)
    assert_covers(monkeypatch, lambda: a.group_commuting(mode))


@pytest.mark.parametrize("case", ["dense map", "sorted map"])
def test_product(monkeypatch, case):
    # the 24 · 4^8-byte table beside a block of pairs, for H^2·H on the
    # 8-qubit fixture; past the table's budget at 12 qubits, the sorted
    # table of strings that seldom repeat
    if case == "dense map":
        h = jordan_wigner(parse_fcidump((FIXTURES / "spin_polarized.fcidump").read_text()))
        a, b = h @ h, h
    else:
        rng = np.random.default_rng(0)
        a, b = random_sum(rng, 12, 300), random_sum(rng, 12, 300)
    assert_covers(monkeypatch, lambda: a @ b)


# the 4-qubit fixture on a state with weight everywhere, and the 8-qubit one
# on three determinants, whose circuits have far more terms than outcomes
@pytest.mark.parametrize(
    "fixture, resamples", [("h2_eq", 100), ("h2_eq", 1000), ("spin_polarized", 500)],
    ids=["100", "1000", "8-qubit"],
)
def test_bootstrap(fixture, resamples):
    h = jordan_wigner(parse_fcidump((FIXTURES / f"{fixture}.fcidump").read_text()))
    mp = plan(build_moments(h))
    if fixture == "h2_eq":
        psi = StateVector(4, random_state(np.random.default_rng(0), 4))
    else:
        amplitudes = np.zeros(256, complex)
        amplitudes[[0b01010100, 0b00010101, 0b01000101]] = 0.8, 0.48, 0.36
        psi = StateVector(8, amplitudes)
    est = estimate(mp, psi, spc=10_000, seed=1, mode="shots")
    outcomes = max(len(r.outcomes) for r in est.records)
    terms = max(len(c.terms) for c in mp.circuits)
    tracemalloc.start()
    try:
        bootstrap(est, resamples, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate_bytes = cli._bootstrap_bytes(resamples, outcomes, terms)
    assert peak <= estimate_bytes <= 3 * peak, (estimate_bytes, peak)
