"""Benchmark of the ``gsee`` run subcommands, end to end and per layer.

    python3 bench/run.py --workload qcm4-shots-8q --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from anywhere; it imports ``gsee`` from the ``src/`` directory next
to ``bench/`` and writes only under ``.bench_work/`` and ``.bench_out/``
there.  Each run is one in-process ``gsee.cli.main([...])`` call with the
default ``--threads 1``; runs form a closed loop with one client (the next
starts when the previous returns).  The number of runs is fixed by
``--seconds`` and the workload's nominal run time, never by the clock (see
``run_count``).  BLAS is held to one thread, so the whole benchmark is
single-threaded and no layer ever waits on another.

With ``--trace 0`` the last output line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (see
``bench/README.md``).  Every run's output is checked against reference
values computed at set-up.  The exit code is 0 on success and nonzero when
the program cannot be found, a check cannot run or a run fails in a way
the workload does not expect.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread keeps every run single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
FIXTURES = SRC / "gsee" / "fixtures"

SETUP_REPEATS = 3
MIN_RUNS = 2
SPC = 10_000
# |E_shots - E_exact| bound for qcels-shots-10q, in Hartree.  The shot
# error of the fitted energy is about 1.5 mHa at spc = 10^4 (largest seen:
# 3 mHa), so this is more than ten standard deviations.
QCELS_ENERGY_TOL = 0.02
# standard deviations allowed between a shot-mode moment and the dense one
QCM4_SIGMAS = 5.0
RECOMPILE_FIDELITY_TOL = 1e-10
KNOWN_QCM4_FAILURE = "negative discriminant"


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------
def import_program() -> None:
    """Imports gsee from ``src/`` next to the benchmark, never from elsewhere."""
    if not (SRC / "gsee" / "__init__.py").is_file():
        raise BenchError(f"no gsee sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import gsee.cli

    if Path(gsee.__file__).resolve().parent != (SRC / "gsee").resolve():
        raise BenchError(f"imported gsee from {gsee.__file__}, not {SRC}")


def program_modules() -> list:
    from gsee import chem, circuits, cli, pauli, qcels, qcm4, recompile, simulator

    return [cli, chem, pauli, simulator, circuits, recompile, qcels, qcm4]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``gsee`` call; returns its exit code and stderr."""
    from gsee import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def must_call(argv: list[str]) -> None:
    code, err = call_cli(argv)
    if code != 0:
        raise BenchError(f"gsee {' '.join(argv)} exited {code}: {err.strip()}")


def read_results(run_dir: Path) -> dict:
    return json.loads((run_dir / "results.json").read_text())["results"]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """One set-up's run config and the reference values the checks use."""

    config: Path
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra_args: tuple[str, ...]
    setup: Callable[[Path, int], Prepared]
    check: Callable[[Prepared, Path], None]
    # seconds of one run at the seed code on 2 cores; sets the run count
    nominal_run_s: float
    expected_failure: str | None = None


def setup_qcm4(directory: Path, seed: int) -> Prepared:
    import workloads

    reference = workloads.write_qcm4(directory, FIXTURES, seed)
    must_call(["ingest", str(directory / "h.fcidump"), "--out", str(directory / "ingest")])
    # warm-up: the same subcommand on the 4-qubit H2 fixture
    warm = directory / "warm"
    warm.mkdir()
    shutil.copy(FIXTURES / "h2_eq.fcidump", warm / "h.fcidump")
    shutil.copy(FIXTURES / "h2_eq_ci.json", warm / "state.json")
    shutil.copy(directory / "qcm4.json", warm / "qcm4.json")
    must_call(["ingest", str(warm / "h.fcidump"), "--out", str(warm / "ingest")])
    must_call([
        "qcm4", "--config", str(warm / "qcm4.json"), "--out", str(warm / "run"),
        "--mode", "shots", "--spc", "100",
    ])
    return Prepared(directory / "qcm4.json", reference)


def check_qcm4(prep: Prepared, run_dir: Path) -> None:
    """Moments agree with the dense <psi|H^n|psi> within QCM4_SIGMAS sigma.

    Sigma is ||H^n - c_I||_1 / sqrt(n_circuits * spc): the standard error
    if the Pauli weight of H^n were spread evenly over the circuits.
    """
    results = read_results(run_dir)
    scale = math.sqrt(results["n_circuits"] * results["spc"])
    for n, (got, want, norm) in enumerate(
        zip(results["moments"], prep.reference["moments"],
            prep.reference["one_norms"]), start=1,
    ):
        tol = QCM4_SIGMAS * norm / scale
        if not abs(got - want) <= tol:
            raise AssertionError(
                f"<H^{n}> = {got!r}, dense {want!r}, tolerance {tol:.3g}"
            )


def setup_qcels(directory: Path, seed: int) -> Prepared:
    import workloads

    workloads.write_qcels(directory, seed)
    must_call(["ingest", str(directory / "h.fcidump"), "--out", str(directory / "ingest")])
    # the exact-mode fit: reference energy and warm-up in one
    config = directory / "qcels.json"
    must_call(["qcels", "--config", str(config), "--out", str(directory / "exact")])
    energy = read_results(directory / "exact")["energy"]
    return Prepared(config, {"energy": energy})


def check_qcels(prep: Prepared, run_dir: Path) -> None:
    got = read_results(run_dir)["energy"]
    want = prep.reference["energy"]
    if not abs(got - want) <= QCELS_ENERGY_TOL:
        raise AssertionError(
            f"shot-mode energy {got!r} vs exact-mode {want!r}"
            f" (tolerance {QCELS_ENERGY_TOL})"
        )


def setup_recompile(directory: Path, seed: int) -> Prepared:
    import workloads

    reference = workloads.write_recompile(directory, FIXTURES, seed)
    must_call(["ingest", str(directory / "h.fcidump"), "--out", str(directory / "ingest")])
    # warm-up: one iteration on two points, with the full-size batches
    config = json.loads((directory / "recompile.json").read_text())
    config["recompile"].update(n_points=2, max_iterations=1)
    warm = directory / "warm.json"
    warm.write_text(json.dumps(config))
    must_call(["recompile", "--config", str(warm), "--out", str(directory / "warm")])
    return Prepared(directory / "recompile.json", reference)


def check_recompile(prep: Prepared, run_dir: Path) -> None:
    """Each fidelity equals |<target|U(theta)|0>|^2 recomputed from the file."""
    import numpy as np
    import workloads

    results = read_results(run_dir)
    series = json.loads((run_dir / "series_compilation.json").read_text())
    h, psi = prep.reference["h"], prep.reference["psi"]
    h0 = float(np.trace(h)) / len(h)
    h1 = 4.0 / math.pi * float(np.max(np.abs(np.linalg.eigvalsh(h - h0 * np.eye(len(h))))))
    if abs(results["h0"] - h0) > 1e-10 or abs(results["h1"] - h1) > 1e-10 * h1:
        raise AssertionError(f"scale (h0, h1) = {results['h0']}, {results['h1']}")
    if len(series["results"]) != results["n_points"]:
        raise AssertionError("series_compilation.json misses time points")
    for n, entry in enumerate(series["results"]):
        target = workloads.hadamard_target(h, psi, h0, h1, n * results["tau"])
        state = workloads.hea_state(
            series["n_qubits"], series["layers"], np.asarray(entry["parameters"])
        )
        fidelity = abs(np.vdot(target, state)) ** 2
        if not abs(fidelity - entry["fidelity"]) <= RECOMPILE_FIDELITY_TOL:
            raise AssertionError(
                f"step {n}: reported fidelity {entry['fidelity']!r},"
                f" recomputed {fidelity!r}"
            )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qcm4-shots-8q", "qcm4", ("--mode", "shots", "--spc", str(SPC)),
            setup_qcm4, check_qcm4, nominal_run_s=6.5,
            expected_failure=KNOWN_QCM4_FAILURE,
        ),
        Workload(
            "qcels-shots-10q", "qcels", ("--mode", "shots", "--spc", str(SPC)),
            setup_qcels, check_qcels, nominal_run_s=3.0,
        ),
        Workload(
            "recompile-5q", "recompile", (), setup_recompile, check_recompile,
            nominal_run_s=6.5,
        ),
    )
}


# ----------------------------------------------------------------------
# machine description
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Runs:
    durations: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    failed: int = 0


def run_once(
    workload: Workload, prep: Prepared, run_dir: Path, seed: int,
    span: Callable = contextlib.nullcontext,
) -> tuple[float, bool, str | None]:
    """One timed subcommand run, inside ``span()``, and its output check.

    Returns the run's seconds, whether it failed in the way the workload
    expects, and the check's complaint (None when the outputs are right).
    """
    (run_dir / "results.json").unlink(missing_ok=True)
    # every run starts from the same collected heap
    gc.collect()
    argv = [
        workload.command, "--config", str(prep.config), "--out", str(run_dir),
        "--seed", str(seed), *workload.extra_args,
    ]
    with span():
        start = time.perf_counter()
        code, err = call_cli(argv)
        elapsed = time.perf_counter() - start
    if code == 1 and workload.expected_failure and workload.expected_failure in err:
        return elapsed, True, None
    if code != 0:
        raise BenchError(f"gsee {' '.join(argv)} exited {code}: {err.strip()}")
    try:
        workload.check(prep, run_dir)
    except AssertionError as exc:
        return elapsed, False, str(exc)
    return elapsed, False, None


def fresh_import_seconds() -> float:
    """Start-up and import time of a fresh interpreter loading ``gsee.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gsee.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return time.perf_counter() - start


def tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(durations)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(durations)[n - 11]


def run_count(workload: Workload, seconds: int, trace: bool) -> int:
    """Timed runs in one invocation: about ``seconds`` of seed-code work.

    Whether a run fails depends only on the seed and the run index, so a
    count fixed in advance gives the same ``attempted`` and ``failed`` on
    every invocation with the same arguments; a loop that stops on the
    clock would not.  Traced mode needs an even count, half of it traced.
    """
    count = max(MIN_RUNS, round(seconds / workload.nominal_run_s))
    return count + count % 2 if trace else count


def measure(workload: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    import spans

    modules = program_modules()
    tracer = spans.Tracer()
    setup_times = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        tracer.run = "setup"
        import_s = fresh_import_seconds()
        start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(tracer.installed(modules))
            prep = workload.setup(work / f"setup{repeat}", seed)
        setup_times.append(import_s + time.perf_counter() - start)

    run_dir = work / "run"
    run_dir.mkdir()
    runs = Runs()
    check_errors = []
    for index in range(run_count(workload, seconds, trace)):
        # traced mode alternates untraced and traced runs for the overhead
        traced = trace and index % 2 == 1
        tracer.run = index
        with tracer.installed(modules) if traced else contextlib.nullcontext():
            elapsed, failed, error = run_once(
                workload, prep, run_dir, 1000 * seed + index,
                span=(lambda: tracer.span("bench.run")) if traced else contextlib.nullcontext,
            )
        runs.durations.append(elapsed)
        runs.traced.append(traced)
        runs.failed += failed
        if error is not None:
            check_errors.append(f"run {index}: {error}")
    return {
        "setup_times": setup_times,
        "runs": runs,
        "check_errors": check_errors,
        "tracer": tracer,
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: dict) -> dict:
    runs = outcome["runs"]
    return {
        "run_s_p50": (statistics.median(runs.durations), "s"),
        "setup_s": (statistics.median(outcome["setup_times"]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


# (span, statistics) reported per traced run; see bench/README.md
LAYERS = (
    "cli.main", "cli.resolve_config",
    "chem.ci_initial_state", "chem.determinants_from_json",
    "pauli.PauliSum.from_json", "pauli.sum_multiply",
    "pauli.PauliSum.group_commuting", "pauli.PauliSum.to_dense",
    "pauli.PauliSum.eig", "pauli.PauliSum.spectral_norm",
    "circuits.two_qubit_depth", "circuits.Circuit.bind", "circuits.hea_ansatz",
    "simulator.simulate_batch", "simulator.apply_circuit",
    "simulator.evolve_exact", "simulator.expectation",
    "simulator.sample_z", "simulator.estimate_pauli_z",
    "recompile.compile_series", "recompile.compile_state",
    "qcels.scale", "qcels.choose_grid", "qcels.hadamard_test_state",
    "qcels.acquire", "qcels.fit",
    "qcm4.build_moments", "qcm4.plan", "qcm4.estimate", "qcm4.bootstrap",
)
WORK_COUNTS = (
    ("pauli.sum_multiply", "products"),
    ("pauli.PauliSum.group_commuting", "pairs"),
    ("qcm4.build_moments", "terms"),
    ("qcm4.plan", "circuits"),
    ("qcm4.plan", "distinct_strings"),
    ("qcm4.bootstrap", "failures"),
    ("simulator.sample_z", "shots"),
    ("simulator.expectation", "terms"),
    ("simulator.simulate_batch", "gate_applications"),
    ("simulator.simulate_batch", "bytes_computed"),
    ("recompile.compile_state", "iterations"),
)
SETUP_LAYERS = (
    "chem.parse_fcidump", "chem.jordan_wigner",
    "chem.ci_initial_state", "pauli.PauliSum.from_json",
)


def per_layer(outcome: dict) -> dict:
    import spans

    runs, tracer = outcome["runs"], outcome["tracer"]
    traced = [i for i, t in enumerate(runs.traced) if t]
    plain = [d for d, t in zip(runs.durations, runs.traced) if not t]
    per_run = spans.layer_stats(tracer.spans, traced)
    n = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        stats = per_run.get(name, {})
        metrics[f"{name}.calls"] = (stats.get("calls", 0) / n, "count")
        metrics[f"{name}.busy_s"] = (stats.get("busy_s", 0.0) / n, "s")
        metrics[f"{name}.self_s"] = (stats.get("self_s", 0.0) / n, "s")
    for name, key in WORK_COUNTS:
        unit = "B" if key.startswith("bytes") else "count"
        metrics[f"{name}.{key}"] = (per_run.get(name, {}).get(key, 0) / n, unit)
    compile_stats = per_run.get("recompile.compile_state", {})
    calls = compile_stats.get("calls", 0)
    iterations = compile_stats.get("iterations", 0)
    metrics["recompile.s_per_iteration"] = (
        compile_stats["busy_s"] / iterations if iterations else 0.0, "s"
    )
    metrics["recompile.mean_fidelity"] = (
        compile_stats["fidelity"] / calls if calls else 0.0, "ratio"
    )
    setup = spans.layer_stats(tracer.spans, ["setup"])
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.busy_s"] = (setup.get(name, {}).get("busy_s", 0.0), "s")
    root = per_run["bench.run"]
    below = root["busy_s"] - root["self_s"] - per_run["cli.main"]["self_s"]
    metrics["trace.layer_share"] = (below / root["busy_s"], "ratio")
    traced_s = statistics.median(d for d, t in zip(runs.durations, runs.traced) if t)
    metrics["trace.overhead_frac"] = (traced_s / statistics.median(plain) - 1.0, "ratio")
    traced_runs = set(traced)
    metrics["trace.spans_per_run"] = (
        sum(1 for s in tracer.spans if s[4] in traced_runs) / n, "count"
    )
    return metrics


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: Workload, args, outcome: dict, metrics: dict, info: dict) -> dict:
    runs = outcome["runs"]
    attempted = len(runs.durations)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    if not args.trace:
        spread = tail(runs.durations)
        metrics_lines = [f"{name:<14} {_fmt(v)} {u}" for name, (v, u) in metrics.items()]
        metrics_lines.insert(1, "run_s_tail     " + (
            f"{_fmt(spread[1])} s (p{spread[0]:.1f} of {attempted} runs)"
            if spread else f"n/a ({attempted} runs; needs at least 11)"
        ))
        metrics_lines.append(
            f"failed_frac    {_fmt(runs.failed / attempted)} ({runs.failed} of {attempted})"
        )
        print("\n".join(metrics_lines))
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name:<48} {_fmt(value)} {unit}")
    errors = outcome["check_errors"]
    print(f"checks passed on {attempted - runs.failed - len(errors)} of"
          f" {attempted - runs.failed} completed runs")
    for error in errors:
        print(f"check FAILED, {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_record(workload: Workload, args, outcome: dict, result: dict, info: dict) -> None:
    OUT.mkdir(exist_ok=True)
    runs = outcome["runs"]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "result": result,
        "setup_times": outcome["setup_times"],
        "runs": [{"seconds": d, "traced": t}
                 for d, t in zip(runs.durations, runs.traced)],
    }
    if args.trace:
        record["spans"] = outcome["tracer"].spans
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args)

    try:
        import_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other invocation is using it
    info = machine()
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    result = report(workload, args, outcome, metrics, info)
    write_record(workload, args, outcome, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
