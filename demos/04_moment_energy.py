"""Ground-state energy from four Hamiltonian moments.

The moments <H>..<H^4> in a trial state determine connected cumulants
c1..c4, and a fourth-order formula turns those into an energy estimate
that sits below <H> whenever the state has any ground-state weight.
Everything here runs in exact-expectation mode; shot noise is the next
demo's topic.
"""

import pathlib

import numpy as np

from gsee.chem import ci_initial_state, determinants_from_json
from gsee.chem import jordan_wigner, parse_fcidump
from gsee.qcm4 import build_moments, cumulants, energy, estimate, pauli_filter, plan

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

h = jordan_wigner(parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text()))
_, dets = determinants_from_json((FIXTURES / "h2_eq_ci.json").read_text())
psi = ci_initial_state(dets, 0.0, h.n_qubits)
exact_ground = min(float(np.linalg.eigvalsh(mats).min()) for _, mats in h.blocks())

# Powers of H as Pauli sums.  The term counts grow with the power until
# the 4-qubit operator space saturates.
m = build_moments(h)
print(f"terms in H^1..H^4: {m.term_counts}")

# Strings with zero expectation in the trial state carry no information;
# filtering moves their (exactly zero) contribution into constants.
filtered, report = pauli_filter(m, psi)
print(f"strings evaluated by the filter: {report.evaluated}, "
      f"survivors per power: {report.survivors}")

# One measurement circuit per commuting set, shared across the powers.
mp = plan(filtered)
print(f"measurement circuits: {mp.n_circuits}")

est = estimate(mp, psi)
cums = cumulants(est)
e4 = energy(cums)
print(f"\nmoments:   {[f'{x:.8f}' for x in est.moments]}")
print(f"cumulants: {[f'{x:.3e}' for x in cums]}")
print(f"fourth-order energy: {e4:.10f} Ha")
print(f"dense ground energy: {exact_ground:.10f} Ha")
print(f"first moment <H>:    {est.moments[0]:.10f} Ha")
print(f"error vs ground: {abs(e4 - exact_ground):.2e} Ha")

# Coefficient truncation trades term count against a small energy shift.
truncated = build_moments(h, threshold=1e-3)
e_trunc = energy(cumulants(estimate(plan(truncated), psi)))
print(f"\nwith a 1e-3 coefficient threshold: E = {e_trunc:.10f} Ha "
      f"(shift {abs(e_trunc - e4) * 1e3:.4f} mHa)")
