"""Error bars for the moment method under shot noise.

Moments estimated from finitely many shots scatter, and the energy
formula amplifies that scatter nonlinearly, so the error bar comes from
a bootstrap: resample each circuit's recorded shot histogram, reassemble
the moments, and re-evaluate the energy.  The std shrinks roughly like
1/sqrt(shots), a factor of ~10 between 10^2 and 10^4 shots per circuit.
"""

import pathlib

from gsee.chem import ci_initial_state, determinants_from_json
from gsee.chem import jordan_wigner, parse_fcidump
from gsee.qcm4 import bootstrap, build_moments, cumulants, energy, estimate, plan

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

h = jordan_wigner(parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text()))
_, dets = determinants_from_json((FIXTURES / "h2_eq_ci.json").read_text())
psi = ci_initial_state(dets, 0.0, h.n_qubits)

mp = plan(build_moments(h))
exact = energy(cumulants(estimate(mp, psi)))
print(f"exact-expectation energy: {exact:.10f} Ha")
print(f"{'shots/circuit':>14} {'energy (Ha)':>16} {'bootstrap std (mHa)':>20}")

for spc in (100, 1_000, 10_000):
    est = estimate(mp, psi, spc=spc, seed=2, mode="shots")
    bs = bootstrap(est, resamples=500, seed=2)
    e = energy(cumulants(est))
    print(f"{spc:>14d} {e:>16.8f} {bs.std * 1e3:>20.3f}")

print("\nThe bootstrap resamples the recorded shot histograms, so it needs")
print("no extra circuit executions; 500 resamples is the default.")
