"""From molecular integrals to a reduced qubit Hamiltonian.

Reads the bundled H2/STO-3G FCIDUMP, maps it to a 4-qubit Pauli sum,
then removes qubits along the Z2 symmetries of the operator.  A dense
diagonalization at each stage shows the ground energy is untouched.
"""

import pathlib

import numpy as np

from gsee.chem import jordan_wigner, parse_fcidump, taper_state, taper_z2
from gsee.chem import ci_initial_state, determinants_from_json
from gsee.simulator import expectation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

integrals = parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text())
print(f"H2/STO-3G at equilibrium: {integrals.norb} orbitals, "
      f"{integrals.nelec} electrons, core energy {integrals.core_energy:.6f} Ha")

h = jordan_wigner(integrals)
ground = min(float(np.linalg.eigvalsh(mats).min()) for _, mats in h.blocks())
print(f"qubit Hamiltonian: {h.n_qubits} qubits, {len(h)} Pauli terms")
print(f"dense ground energy: {ground:.10f} Ha")

# The full symmetry kernel takes H2 down to a single qubit.  The
# reference determinant (both electrons in the lowest orbital, mask
# 0b0011) selects the particle-number sector the ground state lives in.
report = taper_z2(h, 0b0011)
reduced = report.reduced
print(f"\nZ2 symmetries found: {[g.to_label() for g in report.generators]}")
print(f"tapered operator: {reduced.n_qubits} qubit(s), {len(reduced)} terms")
tapered_ground = min(float(np.linalg.eigvalsh(mats).min()) for _, mats in reduced.blocks())
print(f"tapered ground energy: {tapered_ground:.10f} Ha")

# States ride along.  The two-determinant CI state maps into the reduced
# register and keeps its energy expectation up to rounding: tapering
# merges terms, so the two float sums may differ in the last bits.
_, dets = determinants_from_json((FIXTURES / "h2_eq_ci.json").read_text())
ci = ci_initial_state(dets, 0.0, h.n_qubits)
ci_reduced = taper_state(report, ci)
before = expectation(ci, h).real
after = expectation(ci_reduced, reduced).real
print(f"\nCI-state energy before tapering: {before:.10f} Ha")
print(f"CI-state energy after tapering:  {after:.10f} Ha")
print(f"difference: {abs(after - before):.2e} Ha")
