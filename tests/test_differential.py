"""Differential end-to-end runs on random molecules.

Each example draws integrals from ``bench/workloads.py`` (which it only
reads), a valid (NELEC, MS2) sector and a CI state of 1-4 of its
determinants, runs ``gsee ingest`` and ``gsee qcels --mode exact`` in
process, and checks their records against the Fock-space Hamiltonian that
``workloads.fock_hamiltonian`` builds with its own ladder operators.  The
references use no ``gsee`` code.
"""

import json
import math
import pathlib
import sys
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench")]

import workloads  # noqa: E402
from gsee.cli import main  # noqa: E402


@st.composite
def molecules(draw):
    """``(norb, seed, nelec, ms2, dets)``: integrals seed, a sector with at
    least one electron, and 1-4 distinct determinants of it with weights."""
    norb = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    n_alpha, n_beta = draw(st.tuples(st.integers(0, norb), st.integers(0, norb))
                           .filter(lambda counts: sum(counts) > 0))
    sector = workloads.sector_indices(norb, n_alpha + n_beta, n_alpha - n_beta)
    picks = draw(st.lists(st.sampled_from(sector.tolist()), min_size=1,
                          max_size=min(4, len(sector)), unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1),
                            min_size=len(picks), max_size=len(picks)))
    return norb, seed, n_alpha + n_beta, n_alpha - n_beta, list(zip(picks, weights))


def overlap_rows(path: pathlib.Path) -> np.ndarray:
    """``overlap.csv``'s (n, t, re, im) columns, past its two header lines."""
    lines = path.read_text().splitlines()[2:]
    return np.array([[float(x) for x in line.split(",")[:4]] for line in lines])


@settings(max_examples=25, deadline=None)
@given(molecule=molecules())
def test_ingest_and_exact_qcels_match_the_fock_space_matrix(molecule):
    norb, seed, nelec, ms2, dets = molecule
    one, two, core = workloads.random_integrals(norb, seed)
    h = workloads.fock_hamiltonian(one, two, core)
    psi = workloads.ci_state(norb, dets)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "h.fcidump").write_text(workloads.fcidump_text(one, two, core, nelec, ms2))
        (tmp / "state.json").write_text(workloads.ci_json(norb, dets))
        (tmp / "qcels.json").write_text(json.dumps({
            "algorithm": "qcels",
            "operator": "ingest/operator.json",
            "state": {"determinants": "state.json", "threshold": 0.0},
            "qcels": {"n_points": 9},
        }))
        assert main(["ingest", str(tmp / "h.fcidump"), "--out", str(tmp / "ingest")]) == 0
        assert main(["qcels", "--config", str(tmp / "qcels.json"),
                     "--out", str(tmp / "run")]) == 0
        report = json.loads((tmp / "ingest" / "ingest_report.json").read_text())
        results = json.loads((tmp / "run" / "results.json").read_text())["results"]
        rows = overlap_rows(tmp / "run" / "overlap.csv")

    # ingest: the lowest eigenvalue of the header's sector
    sector = workloads.sector_indices(norb, nelec, ms2)
    lowest = np.linalg.eigvalsh(h[np.ix_(sector, sector)])[0]
    assert abs(report["ground_energy"] - lowest) <= 1e-10

    # qcels: h0 the mean of the spectrum, h1 = (4/pi) max |eig(H - h0)|
    dim = len(h)
    h0, h1, tau = results["h0"], results["h1"], results["tau"]
    assert abs(h0 - np.trace(h) / dim) <= 1e-10 * max(1.0, abs(h0))
    vals, vecs = np.linalg.eigh(h - h0 * np.eye(dim))
    assert abs(h1 - 4.0 / math.pi * np.max(np.abs(vals))) <= 1e-10 * h1

    # every overlap <psi| exp(-i t_k (H - h0)/h1) |psi> at t_k = k tau
    weights = np.abs(vecs.T @ psi) ** 2
    assert rows[:, 0].tolist() == list(range(9))
    assert np.array_equal(rows[:, 1], np.arange(9) * tau)
    want = np.exp(-1j * np.outer(rows[:, 1], vals / h1)) @ weights
    assert np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - want)) <= 1e-10
