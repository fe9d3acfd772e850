"""Tests of the benchmark itself: inputs, references, tracer and metric names.

    python -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import spans
import workloads
from gsee import circuits, cli, pauli, qcm4, simulator
from gsee.chem import jordan_wigner, parse_fcidump

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
FIXTURES = ROOT / "src" / "gsee" / "fixtures"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic(tmp_path):
    for name, write in (
        ("qcels", workloads.write_qcels),
        ("qcm4", lambda d, s: workloads.write_qcm4(d, FIXTURES, s)),
        ("recompile", lambda d, s: workloads.write_recompile(d, FIXTURES, s)),
    ):
        write(tmp_path / f"{name}-a", 5)
        write(tmp_path / f"{name}-b", 5)
        write(tmp_path / f"{name}-c", 6)
        first = _files(tmp_path / f"{name}-a")
        assert first == _files(tmp_path / f"{name}-b")
        if name != "recompile":  # only the config's seed differs there
            assert first != _files(tmp_path / f"{name}-c")


@pytest.mark.parametrize("norb", [2, 4, 5])
def test_eightfold_symmetry_survives_parse_fcidump(norb):
    one, two, core = workloads.random_integrals(norb, seed=3)
    fi = parse_fcidump(workloads.fcidump_text(one, two, core, norb - 1, 0))
    assert np.array_equal(fi.one_body, one)
    assert np.array_equal(fi.two_body, two)
    assert fi.core_energy == core
    for perm in ("pqrs", "qprs", "pqsr", "qpsr", "rspq", "srpq", "rsqp", "srqp"):
        image = np.einsum(f"pqrs->{perm}", fi.two_body)
        assert np.array_equal(image, fi.two_body), perm


def test_dense_hamiltonian_matches_the_program():
    one, two, core = workloads.random_integrals(3, seed=11)
    fi = parse_fcidump(workloads.fcidump_text(one, two, core, 2, 0))
    dense = jordan_wigner(fi).to_dense()
    assert np.allclose(workloads.fock_hamiltonian(one, two, core), dense,
                       rtol=0, atol=1e-12)


def test_pauli_one_norm_matches_coefficients():
    fi = parse_fcidump((FIXTURES / "h2_eq.fcidump").read_text())
    h = jordan_wigner(fi)
    square = pauli.sum_multiply(h, h)
    for op in (h, square):
        want = op.one_norm() - abs(op.identity_coefficient)
        assert workloads.pauli_one_norm(op.to_dense()) == pytest.approx(want, abs=1e-12)


def test_top_determinants_are_in_the_sector_and_normalizable():
    one, two, core = workloads.random_integrals(4, seed=2)
    h = workloads.fock_hamiltonian(one, two, core)
    dets = workloads.top_determinants(h, 4, 3, 1, 4)
    sector = set(workloads.sector_indices(4, 3, 1).tolist())
    assert all(mask in sector for mask, _ in dets)
    magnitudes = [abs(c) for _, c in dets]
    assert magnitudes == sorted(magnitudes, reverse=True) and dets[0][1] > 0


def test_three_determinant_state_matches_roadmap_repro():
    coeffs = np.random.default_rng(0).normal(size=3)
    assert np.allclose(workloads.three_det_coefficients(0), coeffs / np.linalg.norm(coeffs))


def test_independent_ansatz_matches_the_simulator():
    ansatz, spec = circuits.hea_ansatz(3, 2)
    params = np.random.default_rng(1).uniform(-np.pi, np.pi, size=spec.n_params)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    want = simulator.simulate_batch(ansatz, zero, params[None])[0]
    assert np.allclose(workloads.hea_state(3, 2, params), want, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def _traced_runs(tmp_path: Path, count: int = 2) -> spans.Tracer:
    directory = tmp_path / "h2"
    workloads.write_recompile(directory, FIXTURES, 0)
    bench.must_call(["ingest", str(directory / "h.fcidump"), "--out", str(directory / "ingest")])
    config = json.loads((directory / "recompile.json").read_text())
    config.pop("recompile")
    config["algorithm"] = "qcm4"
    (directory / "qcm4.json").write_text(json.dumps(config))
    tracer = spans.Tracer()
    with tracer.installed(bench.program_modules()):
        for run in range(count):
            tracer.run = run
            with tracer.span("bench.run"):
                bench.must_call([
                    "qcm4", "--config", str(directory / "qcm4.json"),
                    "--out", str(directory / f"run{run}"), "--mode", "shots",
                    "--spc", "200", "--seed", str(run),
                ])
    return tracer


def test_tracer_restores_every_original(tmp_path):
    originals = (qcm4.sum_multiply, simulator.simulate_batch, pauli.PauliSum.__dict__["from_json"],
                 pauli.PauliSum.group_commuting, cli.main)
    _traced_runs(tmp_path, count=1)
    after = (qcm4.sum_multiply, simulator.simulate_batch, pauli.PauliSum.__dict__["from_json"],
             pauli.PauliSum.group_commuting, cli.main)
    assert all(a is b for a, b in zip(originals, after))
    assert qcm4.sum_multiply is pauli.sum_multiply


def test_self_times_sum_to_the_root_span(tmp_path):
    tracer = _traced_runs(tmp_path)
    own = spans.self_times(tracer.spans)
    for run in (0, 1):
        members = [i for i, s in enumerate(tracer.spans) if s[4] == run]
        root = next(i for i in members if tracer.spans[i][0] == "bench.run")
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        assert sum(own[i] for i in members) == pytest.approx(duration, abs=1e-9)
        assert all(own[i] >= -1e-9 for i in members)
        for i in members:
            name, start, end, parent, *_ = tracer.spans[i]
            if parent >= 0:
                assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "qcm4.plan", "pauli.PauliSum.group_commuting",
            "pauli.sum_multiply", "simulator.sample_z"} <= names
    assert not any(n.startswith(("pauli.PauliString.", "circuits.Gate.")) for n in names)


def test_work_counts_come_from_argument_sizes(tmp_path):
    tracer = _traced_runs(tmp_path, count=1)
    stats = spans.layer_stats(tracer.spans, [0])
    h = pauli.PauliSum.from_json(
        (tmp_path / "h2" / "ingest" / "operator.json").read_text()
    )
    m = qcm4.build_moments(h)
    products = sum(len(p) * len(h) for p in m.powers[:3])
    assert stats["pauli.sum_multiply"]["products"] == products
    assert stats["qcm4.build_moments"]["terms"] == sum(m.term_counts)
    n = stats["qcm4.plan"]["distinct_strings"]
    assert stats["pauli.PauliSum.group_commuting"]["pairs"] == n * (n - 1) // 2
    assert stats["simulator.sample_z"]["shots"] == 200 * stats["qcm4.plan"]["circuits"]


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def test_metric_names_are_valid_and_match_benchmark_json(tmp_path):
    tracer = _traced_runs(tmp_path, count=1)
    runs = bench.Runs(durations=[1.0, 1.1], traced=[False, True])
    # the traced run is run 0 in the tracer; relabel it as run 1
    for record in tracer.spans:
        record[4] = 1
    layer = bench.per_layer({"runs": runs, "tracer": tracer})
    outcome = {"runs": runs, "setup_times": [0.5, 0.4, 0.6]}
    e2e = bench.end_to_end(outcome)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert {m["unit"] for m in spec["end_to_end"]} == {u for _, u in e2e.values()}
    for metric in spec["per_layer"]:
        assert metric["unit"] == layer[metric["name"]][1]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in bench.WORKLOADS)


def test_run_count_is_fixed_by_the_arguments():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for workload in bench.WORKLOADS.values():
        plain = bench.run_count(workload, seconds, trace=False)
        traced = bench.run_count(workload, seconds, trace=True)
        assert plain >= bench.MIN_RUNS
        assert traced % 2 == 0 and traced - plain in (0, 1)
        # about --seconds of seed-code work, never less than half of it
        assert plain * workload.nominal_run_s >= seconds / 2
        assert bench.run_count(workload, 1, trace=False) == bench.MIN_RUNS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recompile-5q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
