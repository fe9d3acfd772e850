"""Swapping deep evolution circuits for shallow recompiled ones.

Each Hadamard-test state (ancilla entangled with a time-evolved branch)
is re-expressed as a fixed-depth hardware-efficient ansatz whose angles
are fitted by Adam on exact adjoint gradients (one forward and one
backward sweep of the ansatz per iteration).  The phase fit then runs on
the compiled circuits instead of the exact evolution.  A reduced point
count keeps this demo to a few seconds.
"""

import pathlib
import time

import numpy as np

from gsee.circuits import hea_ansatz, two_qubit_depth
from gsee.pauli import PauliSum
from gsee.qcels import acquire, choose_grid, fit, hadamard_test_states, scale
from gsee.recompile import CompileConfig, compile_series
from gsee.simulator import StateVector

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

h = PauliSum.from_json((FIXTURES / "toy_3q.json").read_text())
# the ground state: the lowest eigenvector among H's symmetry cells, which
# come one array per cell size
vals, vecs, rows = min(((*np.linalg.eigh(mats), rows) for rows, mats in h.blocks()),
                       key=lambda cells: cells[0].min())
cell, col = np.unravel_index(np.argmin(vals), vals.shape)
ground = np.zeros(1 << h.n_qubits, dtype=complex)
ground[rows[cell]] = vecs[cell][:, col]
psi = StateVector(3, ground)
sh = scale(h, psi)

n_points = 9
tau = choose_grid(sh, n_points)
reference = fit(acquire(sh, tau, n_points, "exact"), sh).energy
print(f"exact-mode fit on {n_points} points: E* = {reference:.10f} Ha")

# One target per time point: ancilla plus the 3-qubit system, all built
# from the one projection of psi onto the eigenvectors of H~ that scale made.
targets = hadamard_test_states(sh, tau, n_points)
ansatz, _ = hea_ansatz(psi.n_qubits + 1, layers=4)
print(f"ansatz: {ansatz.n_params} parameters, "
      f"two-qubit depth {two_qubit_depth(ansatz)}")

start = time.perf_counter()
compilation = compile_series(
    targets, ansatz,
    CompileConfig(max_iterations=250, restarts=2, seed=0, warm_start=True),
    layers=4,
)
elapsed = time.perf_counter() - start
print(f"compiled {n_points} targets in {elapsed:.1f} s; "
      f"fidelity mean {compilation.mean_fidelity:.6f}, "
      f"min {compilation.min_fidelity:.6f}")

# the compiler's own simulation of each fitted circuit gives the overlaps
series = acquire(sh, tau, n_points, "recompiled", compilation=compilation)
recompiled = fit(series, sh).energy
print(f"recompiled-mode fit: E* = {recompiled:.10f} Ha "
      f"(shift {abs(recompiled - reference) * 1e3:.4f} mHa)")
