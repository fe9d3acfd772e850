"""Bit-identity manifest of library outputs on a committed corpus of inputs.

Every case builds a seeded input from the bundled fixtures or from
``bench/workloads.py`` (which it only reads), calls the library, and
returns named arrays.  ``--write`` records, for each array, the sha256 of
its little-endian bytes with its shape and dtype, and keeps the values of
float and complex arrays (zlib-compressed) so that ``--compare`` can say
how far they moved.

The corpus: ``@`` and ``from_products`` on 40 random sums each at widths
5, 31, 32, 64 and 70; ``@`` as H·H and H²·H on the seed-0
``qcels-shots-10q`` operator, products that take the dense slot map at
width 10; ``jordan_wigner`` at norb 4-7 and on a norb-33 (66-qubit)
operator; ``build_moments`` on the four fixtures, as strings and
coefficients in formation order; on the ``qcm4-shots-8q`` inputs of seeds
0-2, in full and qubitwise grouping with the filter off and on, ``plan``'s
gates, terms, ``z_masks``, signs, coefficients and constants with exact
and ``spc=1000`` shot moments; on the same inputs, the benchmark's
``spc=10000`` shot moments under uniform and weighted allocation with
their 50-resample ``bootstrap`` energies, or the message of a bootstrap
that raises; ``blocks()`` cells and spectra on the fixtures and the
``qcels-shots-10q`` inputs of seeds 0-2;
``from_json(to_json())`` of those operators; and ``taper_z2``'s reduced
operator with ``taper_state`` of one seeded in-sector state on the three
molecular fixtures at their Hartree-Fock determinants, and on ``h2_eq``
with the two per-spin parities as generators; and ``acquire``'s overlap
series on ``h2_eq`` with its CI state in exact, ``spc=200`` shots and
``spc=200`` recompiled mode, and on the ``qcels-shots-10q`` inputs of
seeds 0-9 with the benchmark's ``spc=10000`` shots; and ``compile_series``
on the seed-0 ``recompile-5q`` input, its results and prepared states.

Usage:
    python3 tools/bits.py --write FILE [--src DIR]
    python3 tools/bits.py --compare BASE HEAD

``--src`` names the source tree whose ``gsee`` package the cases import
(default: this checkout's ``src``), so that one corpus runs against two
commits.  ``--compare`` prints one row per case whose arrays differ and
exits 0 either way.  BLAS runs on one thread unless the environment says
otherwise.
"""

import argparse
import base64
import hashlib
import json
import os
import pathlib
import sys
import zlib

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "gsee" / "fixtures"
WIDTHS = (5, 31, 32, 64, 70)
SEEDS = 40  # random @ and from_products cases per width


# ----------------------------------------------------------------------
# inputs and outputs as arrays
# ----------------------------------------------------------------------
def words(masks: list[int], n_qubits: int) -> np.ndarray:
    """Integer masks as ``(N, W)`` ``uint64`` words, word w holding bits 64w.."""
    out = np.zeros((len(masks), max(1, -(-n_qubits // 64))), dtype=np.uint64)
    for w in range(out.shape[1]):
        out[:, w] = [(m >> 64 * w) & (2**64 - 1) for m in masks]
    return out


def random_sum(rng: np.random.Generator, n: int, k: int) -> dict:
    """``k`` terms of 1-3 factors from a pool small enough to collide."""
    pool = [{int(q): "XYZ"[int(a)] for q, a in zip(rng.choice(n, size=rng.integers(1, 4)),
                                                   rng.integers(0, 3, size=3))}
            for _ in range(max(1, k // 2))]
    picks = rng.integers(0, len(pool), size=k)
    return {"n": n, "support": [pool[i] for i in picks],
            "c": rng.normal(size=k) + 1j * rng.normal(size=k)}


def as_sum(gsee, spec: dict):
    pauli = gsee.pauli
    strings = [pauli.PauliString.from_support(s) for s in spec["support"]]
    return pauli.PauliSum(spec["n"], list(zip(strings, spec["c"].tolist())))


def sum_arrays(s, prefix: str = "") -> dict:
    """A sum's strings and coefficients in formation order."""
    items = list(s.items())
    return {
        prefix + "x": words([p.x_mask for p, _ in items], s.n_qubits),
        prefix + "z": words([p.z_mask for p, _ in items], s.n_qubits),
        prefix + "coeff": np.array([c for _, c in items], dtype=complex),
    }


def text_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


# ----------------------------------------------------------------------
# the corpus: (name, inputs, run); run(gsee, inputs) returns named arrays
# ----------------------------------------------------------------------
def run_product(gsee, inp):
    return sum_arrays(as_sum(gsee, inp["a"]) @ as_sum(gsee, inp["b"]))


def run_power_product(gsee, inp):
    h = operator(gsee, inp)
    return sum_arrays((h @ h if inp["power"] == 2 else h) @ h)


def run_from_products(gsee, inp):
    factors = [as_sum(gsee, f) for f in inp["factors"]]
    return sum_arrays(gsee.pauli.PauliSum.from_products(
        inp["n"], factors, inp["rows"], inp["weights"]))


def run_jordan_wigner(gsee, inp):
    fi = gsee.chem.FermionIntegrals(inp["norb"], 0, 0, float(inp["core"][0]),
                                    inp["one"], inp["two"])
    return sum_arrays(gsee.chem.jordan_wigner(fi))


def operator(gsee, inp):
    """The input operator: a fixture JSON, or integrals through ingest's JSON."""
    if "json" in inp:
        return gsee.pauli.PauliSum.from_json(inp["json"])
    fi = gsee.chem.parse_fcidump(inp["fcidump"])
    return gsee.pauli.PauliSum.from_json(gsee.chem.jordan_wigner(fi).to_json())


def run_build_moments(gsee, inp):
    m = gsee.qcm4.build_moments(operator(gsee, inp))
    out = {}
    for k, power in enumerate(m.powers, start=1):
        out.update(sum_arrays(power, f"h{k}."))
    return out


def run_plan(gsee, inp):
    qcm4 = gsee.qcm4
    h = operator(gsee, inp)
    _, parsed = gsee.chem.determinants_from_json(inp["dets"])
    psi = gsee.chem.ci_initial_state(parsed, 0.0, h.n_qubits)
    m = qcm4.build_moments(h)
    if inp["filter"]:
        m, _ = qcm4.pauli_filter(m, psi)
    mp = qcm4.plan(m, inp["mode"])
    circuits = mp.circuits
    terms = [s for c in circuits for s in c.terms]
    return {
        "gates": text_array("\n".join(repr(c.clifford.gates) for c in circuits)),
        "sizes": np.array([len(c.terms) for c in circuits]),
        "terms.x": words([s.x_mask for s in terms], h.n_qubits),
        "terms.z": words([s.z_mask for s in terms], h.n_qubits),
        "z_masks": np.concatenate([c.z_masks for c in circuits]),
        "signs": np.concatenate([c.signs for c in circuits]),
        "coeffs": np.concatenate([c.coeffs for c in circuits]),
        "constants": np.array(mp.constants),
        "exact": np.array(qcm4.estimate(mp, psi).moments),
        "shots": np.array(qcm4.estimate(mp, psi, spc=1000, seed=0, mode="shots").moments),
    }


def run_bootstrap(gsee, inp):
    """Shot moments under one allocation, and their bootstrap energies."""
    qcm4 = gsee.qcm4
    h = operator(gsee, inp)
    _, parsed = gsee.chem.determinants_from_json(inp["dets"])
    psi = gsee.chem.ci_initial_state(parsed, 0.0, h.n_qubits)
    est = qcm4.estimate(qcm4.plan(qcm4.build_moments(h)), psi, spc=10_000, seed=0,
                        mode="shots", allocation=inp["allocation"])
    out = {"moments": np.array(est.moments)}
    try:
        out["energies"] = qcm4.bootstrap(est, 50, 0).energies
    except ValueError as exc:
        out["raised"] = text_array(str(exc))
    return out


def run_taper(gsee, inp):
    h = operator(gsee, inp)
    gens = inp["generators"] and [gsee.pauli.PauliString.from_label(g) for g in inp["generators"]]
    report = gsee.chem.taper_z2(h, inp["reference"], gens)
    # one seeded state, its weight outside the reference's sector zeroed
    index = np.arange(1 << h.n_qubits)
    amps = [1.0, 1j] @ np.random.default_rng(0).normal(size=(2, len(index)))
    for g, sign in zip(report.generators, report.sector_signs):
        amps[(np.bitwise_count(index & g.z_mask) & 1) != (sign < 0)] = 0.0
    state = gsee.simulator.StateVector(h.n_qubits, amps / np.linalg.norm(amps))
    return {**sum_arrays(report.reduced, "reduced."),
            "state": gsee.chem.taper_state(report, state).amplitudes}


def run_blocks(gsee, inp):
    out = {}
    for k, (rows, mats) in enumerate(operator(gsee, inp).blocks()):
        out.update({f"{k}.rows": rows, f"{k}.mats": mats,
                    f"{k}.spectrum": np.linalg.eigvalsh(mats)})
    return out


def run_json(gsee, inp):
    text = operator(gsee, inp).to_json()
    return {"text": text_array(text), **sum_arrays(gsee.pauli.PauliSum.from_json(text))}


def hadamard_series(gsee, inp, layers, max_iterations, restarts):
    """``scale`` from the state of ``inp["dets"]``, ``choose_grid``'s tau, and
    ``compile_series`` of every point's Hadamard-test state (or None when
    ``layers`` is None)."""
    qcels, recompile = gsee.qcels, gsee.recompile
    h = operator(gsee, inp)
    _, parsed = gsee.chem.determinants_from_json(inp["dets"])
    sh = qcels.scale(h, gsee.chem.ci_initial_state(parsed, 0.0, h.n_qubits))
    tau = qcels.choose_grid(sh, inp["n_points"])
    if layers is None:
        return sh, tau, None
    targets = qcels.hadamard_test_states(sh, tau, inp["n_points"])
    ansatz, _ = gsee.circuits.hea_ansatz(h.n_qubits + 1, layers)
    config = recompile.CompileConfig(max_iterations=max_iterations, restarts=restarts,
                                     seed=inp["seed"])
    return sh, tau, recompile.compile_series(targets, ansatz, config, layers=layers)


def run_overlap_series(gsee, inp):
    """``acquire``'s series; recompiled mode first fits a one-layer ansatz to
    every point's Hadamard-test state, 40 Adam steps and one restart."""
    layers = 1 if inp["mode"] == "recompiled" else None
    sh, tau, compilation = hadamard_series(gsee, inp, layers, 40, 1)
    series = gsee.qcels.acquire(sh, tau, inp["n_points"], inp["mode"], inp["spc"],
                                inp["seed"], compilation)
    return {"tau": np.array([series.tau]), "values": series.values,
            "stderr_re": series.stderr_re, "stderr_im": series.stderr_im}


def run_compile_series(gsee, inp):
    """Each result of ``compile_series`` on the Hadamard-test states, and the
    states its ansatz prepares."""
    _, _, c = hadamard_series(gsee, inp, inp["layers"], inp["max_iterations"],
                              inp["restarts"])
    return {"parameters": np.array([r.parameters for r in c.results]),
            "objective": np.array([r.objective for r in c.results]),
            "fidelity": np.array([r.fidelity for r in c.results]),
            "iterations": np.array([r.iterations for r in c.results]),
            "restart": np.array([r.restart for r in c.results]),
            "states": c.states}


def operators() -> dict:
    """The fixtures and the ``qcels-shots-10q`` inputs, as operator inputs."""
    import workloads

    ops = {name: {"fcidump": (FIXTURES / f"{name}.fcidump").read_text()}
           for name in ("h2_eq", "h2_stretched", "spin_polarized")}
    ops["toy_3q"] = {"json": (FIXTURES / "toy_3q.json").read_text()}
    for seed in range(3):
        norb = workloads.QCELS_NORB
        one, two, core = workloads.random_integrals(norb, seed)
        text = workloads.fcidump_text(one, two, core, norb - 1, 0)
        ops[f"qcels-shots-10q.seed{seed}"] = {"fcidump": text}
    return ops


def corpus() -> list[tuple[str, dict, object]]:
    import workloads

    cases = []
    for n in WIDTHS:
        for seed in range(SEEDS):
            rng = np.random.default_rng([n, seed])
            a, b = (random_sum(rng, n, int(rng.integers(0, 40))) for _ in range(2))
            cases.append((f"product.n{n}.seed{seed}", {"a": a, "b": b}, run_product))
            factors = [random_sum(rng, n, int(rng.integers(0, 4))) for _ in range(4)]
            rows = rng.integers(0, 4, size=(int(rng.integers(0, 30)), 3))
            weights = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
            cases.append((f"from_products.n{n}.seed{seed}",
                          {"n": n, "factors": factors, "rows": rows, "weights": weights},
                          run_from_products))
    for norb in (4, 5, 6, 7):
        one, two, core = workloads.random_integrals(norb, 0)
        cases.append((f"jordan_wigner.norb{norb}",
                      {"norb": norb, "one": one, "two": two, "core": np.array([core])},
                      run_jordan_wigner))
    # the norb-33 operator of tests/test_memory.py: dense one-body and (pp|rr)
    rng = np.random.default_rng(0)
    one, coulomb = (m + m.T for m in rng.normal(size=(2, 33, 33)))
    two = np.zeros((33,) * 4)
    p, r = np.indices((33, 33))
    two[p, p, r, r] = coulomb
    cases.append(("jordan_wigner.norb33",
                  {"norb": 33, "one": one, "two": two, "core": np.array([0.5])},
                  run_jordan_wigner))
    ops = operators()
    for power in (1, 2):
        cases.append((f"product.qcels-shots-10q.seed0.h{power}h",
                      {**ops["qcels-shots-10q.seed0"], "power": power}, run_power_product))
    for name in ("h2_eq", "h2_stretched", "spin_polarized", "toy_3q"):
        cases.append((f"build_moments.{name}", ops[name], run_build_moments))
    for seed in range(3):
        dets = list(zip(workloads.QCM4_MASKS, workloads.three_det_coefficients(seed)))
        for mode in ("full", "qubitwise"):
            for filtered in (False, True):
                cases.append((
                    f"plan.qcm4-shots-8q.seed{seed}.{mode}.filter{int(filtered)}",
                    {**ops["spin_polarized"], "dets": workloads.ci_json(4, dets),
                     "mode": mode, "filter": filtered},
                    run_plan,
                ))
        for allocation in ("uniform", "weighted"):
            cases.append((f"bootstrap.qcm4-shots-8q.seed{seed}.{allocation}",
                          {**ops["spin_polarized"], "dets": workloads.ci_json(4, dets),
                           "allocation": allocation},
                          run_bootstrap))
    # each fixture at its Hartree-Fock determinant, h2_eq also with the
    # per-spin parities alone
    for name, reference, generators in (
        ("h2_eq", 0b0011, None), ("h2_eq", 0b0011, ("Z0 Z2", "Z1 Z3")),
        ("h2_stretched", 0b0011, None), ("spin_polarized", 0b00010101, None),
    ):
        cases.append((f"taper.{name}" + (".spin_parities" if generators else ""),
                      {**ops[name], "reference": reference, "generators": generators},
                      run_taper))
    # H2 with its CI state as in the golden qcels runs, and the seed-0
    # qcels-shots-10q run with its top-4 determinants
    h2 = {**ops["h2_eq"], "dets": (FIXTURES / "h2_eq_ci.json").read_text(), "seed": 7}
    for mode, n_points, spc in (("exact", 33, None), ("shots", 33, 200), ("recompiled", 5, 200)):
        cases.append((f"overlap_series.h2_eq.{mode}",
                      {**h2, "mode": mode, "n_points": n_points, "spc": spc},
                      run_overlap_series))
    norb = workloads.QCELS_NORB
    for seed in range(10):
        one, two, core = workloads.random_integrals(norb, seed)
        dets = workloads.top_determinants(workloads.fock_hamiltonian(one, two, core),
                                          norb, norb - 1, 0, workloads.QCELS_TOP_K)
        cases.append((f"overlap_series.qcels-shots-10q.seed{seed}.shots",
                      {"fcidump": workloads.fcidump_text(one, two, core, norb - 1, 0),
                       "dets": workloads.ci_json(norb, dets),
                       "mode": "shots", "n_points": 33, "spc": 10_000, "seed": 0},
                      run_overlap_series))
    # the seed-0 recompile-5q run: H2 with its CI state, 6 layers, 3
    # restarts, 4 points and 50 Adam steps
    cases.append(("compile_series.recompile-5q.seed0",
                  {**h2, "seed": 0, "n_points": 4, "layers": 6, "restarts": 3,
                   "max_iterations": 50},
                  run_compile_series))
    for name, op in ops.items():
        cases.append((f"blocks.{name}", op, run_blocks))
        cases.append((f"json.{name}", op, run_json))
    return cases


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
def record(array: np.ndarray) -> dict:
    array = np.asarray(array)
    data = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest(),
             "shape": list(array.shape), "dtype": array.dtype.str}
    if array.dtype.kind in "fc":
        entry["values"] = base64.b64encode(zlib.compress(data)).decode()
    return entry


def manifest(cases, gsee) -> dict:
    """``{case: {array: record}}`` of every case's outputs."""
    return {name: {k: record(v) for k, v in run(gsee, inputs).items()}
            for name, inputs, run in cases}


def values(entry: dict) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(entry["values"]))
    return np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"])


def moved(old: dict, new: dict) -> str:
    """How one array changed: its layout, or its changed values."""
    if (old["shape"], old["dtype"]) != (new["shape"], new["dtype"]):
        return f"{old['dtype']}{old['shape']} -> {new['dtype']}{new['shape']}"
    if "values" not in old:
        return "bytes differ"
    a, b = values(old).ravel(), values(new).ravel()
    parts = (a.real, b.real), (a.imag, b.imag)
    changed = np.zeros(a.shape, dtype=bool)
    largest = 0.0
    for u, v in parts if a.dtype.kind == "c" else parts[:1]:
        diff = (u != v) & ~(np.isnan(u) & np.isnan(v))
        changed |= diff
        scale = np.maximum(np.abs(u[diff]), np.abs(v[diff]))
        rel = np.abs(u[diff] - v[diff]) / np.where(scale > 0, scale, 1.0)
        largest = max(largest, float(rel.max(initial=0.0)))
    return f"{int(changed.sum())} values, largest relative move {largest:.3g}"


def compare(base: dict, head: dict) -> list[str]:
    """One line per case whose arrays differ, or that one side lacks."""
    rows = []
    for name in sorted(base.keys() | head.keys()):
        if name not in base or name not in head:
            rows.append(f"{name}: only in {'head' if name in head else 'base'}")
            continue
        old, new = base[name], head[name]
        diffs = [f"{k} only in {'head' if k in new else 'base'}"
                 if k not in old or k not in new else f"{k}: {moved(old[k], new[k])}"
                 for k in sorted(old.keys() | new.keys())
                 if old.get(k, {}).get("sha256") != new.get(k, {}).get("sha256")]
        if diffs:
            rows.append(f"{name}: " + "; ".join(diffs))
    return rows


def load_gsee(src: pathlib.Path):
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import gsee.chem
    import gsee.circuits
    import gsee.pauli
    import gsee.qcels
    import gsee.qcm4
    import gsee.recompile
    import gsee.simulator

    return gsee


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", type=pathlib.Path, metavar="FILE")
    group.add_argument("--compare", type=pathlib.Path, nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    args = parser.parse_args()
    if args.write:
        gsee = load_gsee(args.src.resolve())
        result = manifest(corpus(), gsee)
        args.write.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(result)} cases to {args.write}, from {gsee.__file__}")
        return
    base, head = (json.loads(p.read_text()) for p in args.compare)
    rows = compare(base, head)
    print("\n".join(rows) if rows else "no case differs")
    print(f"{len(rows)} of {len(base.keys() | head.keys())} cases differ")


if __name__ == "__main__":
    main()
