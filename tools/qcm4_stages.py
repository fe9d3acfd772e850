"""In-process times of the qcm4 stages on the seed-0 ``qcm4-shots-8q`` input.

Builds that benchmark workload's input from ``bench/workloads.py``, which
it only reads: the bundled 8-qubit ``spin_polarized.fcidump``, round-tripped
through the operator JSON as ``gsee ingest`` writes it, and the seeded
three-determinant state.  Each repeat runs ``build_moments``, ``plan``,
``estimate`` and ``bootstrap`` as ``gsee qcm4 --mode shots --spc 10000``
runs them (full grouping, uniform shots, 500 resamples, seed 0), and a
Markdown table gives each stage's median and quartiles of wall time.
One ``build_moments`` on the seed-0 ``qcels-shots-10q`` operator (10
qubits, through the same JSON round trip) follows, timed once.

Usage: OPENBLAS_NUM_THREADS=1 python3 tools/qcm4_stages.py [--repeats N]
"""

import argparse
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from gsee.chem import (  # noqa: E402
    ci_initial_state,
    determinants_from_json,
    jordan_wigner,
    parse_fcidump,
)
from gsee.pauli import PauliSum  # noqa: E402
from gsee.qcm4 import bootstrap, build_moments, estimate, plan  # noqa: E402

SPC, RESAMPLES, SEED = 10_000, 500, 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    repeats = parser.parse_args().repeats
    text = (ROOT / "src" / "gsee" / "fixtures" / "spin_polarized.fcidump").read_text()
    h = PauliSum.from_json(jordan_wigner(parse_fcidump(text)).to_json())
    dets = list(zip(workloads.QCM4_MASKS, workloads.three_det_coefficients(SEED)))
    _, parsed = determinants_from_json(workloads.ci_json(4, dets))
    psi = ci_initial_state(parsed, 0.0, h.n_qubits)
    times: dict[str, list[float]] = {}

    def timed(name, call, *args, **kwargs):
        start = time.perf_counter()
        result = call(*args, **kwargs)
        times.setdefault(name, []).append(time.perf_counter() - start)
        return result

    for _ in range(repeats):
        m = timed("build_moments", build_moments, h)
        mp = timed("plan", plan, m)
        est = timed("estimate", estimate, mp, psi, spc=SPC, seed=SEED, mode="shots")
        timed("bootstrap", bootstrap, est, RESAMPLES, SEED)
    print(f"### qcm4 stages on the seed-0 qcm4-shots-8q input, {repeats} repeats")
    print("| stage | median ms | quartiles ms |")
    print("|---|---:|---:|")
    for name, values in times.items():
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        print(f"| `{name}` | {1e3 * q2:.1f} | {1e3 * q1:.1f}–{1e3 * q3:.1f} |")
    norb = workloads.QCELS_NORB
    one, two, core = workloads.random_integrals(norb, SEED)
    text = workloads.fcidump_text(one, two, core, norb - 1, 0)
    h10 = PauliSum.from_json(jordan_wigner(parse_fcidump(text)).to_json())
    start = time.perf_counter()
    m = build_moments(h10)
    seconds = time.perf_counter() - start
    print(f"\n`build_moments` on the seed-{SEED} qcels-shots-10q operator "
          f"({h10.n_qubits} qubits, {m.term_counts} terms): {seconds:.2f} s")


if __name__ == "__main__":
    main()
