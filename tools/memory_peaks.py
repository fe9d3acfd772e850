"""Each memory check against the tracemalloc peak of the call it guards.

Runs the cases of ``tests/test_memory.py`` on inputs built from
``bench/workloads.py``, which it only reads, and prints a Markdown table:
per call and size, the bytes the call passed to ``pauli.check_memory``
(for ``bootstrap``, the bytes ``gsee qcm4`` checks before it), its
tracemalloc peak and their ratio.  A ratio below 1 is a check that
undercounts: a machine with memory between the two passes the check and
can still run out.

Usage: OPENBLAS_NUM_THREADS=1 python3 tools/memory_peaks.py
"""

import pathlib
import sys
import tracemalloc

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from gsee import cli, pauli, qcels  # noqa: E402
from gsee.chem import (  # noqa: E402
    FermionIntegrals,
    ci_initial_state,
    determinants_from_json,
    jordan_wigner,
    parse_fcidump,
)
from gsee.pauli import PauliSum  # noqa: E402
from gsee.qcm4 import bootstrap, build_moments, estimate, plan  # noqa: E402
from gsee.simulator import StateVector  # noqa: E402


def checked_peak(call) -> tuple[int, int]:
    """``(largest bytes checked, tracemalloc peak)`` of ``call()``."""
    checked = []
    real = pauli.check_memory

    def spy(n_bytes, what):
        checked.append(n_bytes)
        real(n_bytes, what)

    pauli.check_memory = qcels.check_memory = spy
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pauli.check_memory = qcels.check_memory = real
    return max(checked), peak


def integrals(norb: int, coulomb_only: bool = False) -> FermionIntegrals:
    """The seed-0 benchmark integrals; optionally only their (pp|rr) part."""
    one, two, core = workloads.random_integrals(norb, 0)
    if coulomb_only:
        p, r = np.indices((norb, norb))
        kept = np.zeros_like(two)
        kept[p, p, r, r] = two[p, p, r, r]
        two = kept
    return FermionIntegrals(norb, 0, 0, core, one, two)


def hea(n_qubits: int) -> StateVector:
    """A one-layer ansatz state, weight on every basis index."""
    n_params = 6 * n_qubits + n_qubits - 1
    return StateVector(
        n_qubits, workloads.hea_state(n_qubits, 1, np.linspace(0.1, 2.9, n_params))
    )


def qcm4_case():
    """The seed-0 qcm4-shots-8q moments, their distinct strings and shot estimate."""
    text = (ROOT / "src" / "gsee" / "fixtures" / "spin_polarized.fcidump").read_text()
    h = PauliSum.from_json(jordan_wigner(parse_fcidump(text)).to_json())
    dets = list(zip(workloads.QCM4_MASKS, workloads.three_det_coefficients(0)))
    _, parsed = determinants_from_json(workloads.ci_json(4, dets))
    psi = ci_initial_state(parsed, 0.0, 8)
    m = build_moments(h)
    distinct = {s for p in m.powers for s, _ in p.terms() if s.x_mask | s.z_mask}
    strings = PauliSum(8, dict.fromkeys(distinct, 1.0))
    est = estimate(plan(m), psi, spc=10_000, seed=0, mode="shots")
    outcomes = max(len(r.outcomes) for r in est.records)
    terms = max(len(c.terms) for c in est.plan.circuits)
    return strings, est, cli._bootstrap_bytes(500, outcomes, terms)


def bootstrap_peak(est, checked: int) -> tuple[int, int]:
    """``(checked, tracemalloc peak)`` of a 500-resample bootstrap."""
    tracemalloc.start()
    try:
        bootstrap(est, 500, 0)
        return checked, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    h12 = jordan_wigner(integrals(6))
    x = next(s.x_mask for s, _ in h12.terms() if s.x_mask)
    diagonal = PauliSum(12, {s: c for s, c in h12.terms() if s.x_mask == 0})
    one_x = PauliSum(12, {s: c for s, c in h12.terms() if s.x_mask in (0, x)})
    h10 = jordan_wigner(integrals(5))
    sh10, sh12 = qcels.scale(h10), qcels.scale(diagonal)
    psi10, psi12 = hea(10), hea(12)
    fi4, fi6, fi33 = integrals(4), integrals(6), integrals(33, coulomb_only=True)
    strings, est, bootstrap_bytes = qcm4_case()
    sparse10 = PauliSum(10, list(h10.terms())[:100])
    cases = [
        ("blocks", "12 qubits, 1-row blocks (norb-6 diagonal)", diagonal.blocks),
        ("blocks", "12 qubits, 2-row blocks (and one x mask)", one_x.blocks),
        ("blocks", "10 qubits, 36 sector cells (qcels-shots-10q seed 0)", h10.blocks),
        ("blocks", "12 qubits, 49 sector cells (norb 6)", h12.blocks),
        ("scale", "10 qubits, qcels-shots-10q seed 0", lambda: qcels.scale(h10)),
        ("scale", "12 qubits, norb 6", lambda: qcels.scale(h12)),
        ("jordan_wigner", "norb 4", lambda: jordan_wigner(fi4)),
        ("jordan_wigner", "norb 6", lambda: jordan_wigner(fi6)),
        ("jordan_wigner", "norb 33 (W = 2), Coulomb only", lambda: jordan_wigner(fi33)),
        ("_project", "10 qubits, all 36 sector cells live", lambda: sh10._project(psi10)),
        ("_project", "12 qubits, 1-row blocks, all live", lambda: sh12._project(psi12)),
        ("to_dense", "10 qubits", h10.to_dense),
        ("group_commuting", "full, qcm4-shots-8q's 5,459 strings",
         lambda: strings.group_commuting("full")),
        ("group_commuting", "qubitwise, qcm4-shots-8q's 5,459 strings",
         lambda: strings.group_commuting("qubitwise")),
        ("group_commuting", "full, 100 terms of the norb-5 operator (10 qubits)",
         lambda: sparse10.group_commuting("full")),
        ("bootstrap", "qcm4-shots-8q seed 0, 500 resamples",
         lambda: bootstrap_peak(est, bootstrap_bytes)),
    ]
    print("### Memory checks against their peaks")
    print("| call | case | check_memory bytes | tracemalloc peak | ratio |")
    print("|---|---|---:|---:|---:|")
    for call, case, run in cases:
        estimate, peak = run() if call == "bootstrap" else checked_peak(run)
        print(f"| `{call}` | {case} | {estimate:,} | {peak:,} | {estimate / peak:.2f} |")


if __name__ == "__main__":
    main()
