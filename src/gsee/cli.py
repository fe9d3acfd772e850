"""Run configuration, artifact persistence, and the command-line front end.

Subcommands:
    ingest     FCIDUMP file -> Pauli-sum operator JSON (optionally tapered)
    qcels      overlap-series phase estimation run
    qcm4       moment/cumulant energy run
    recompile  variational compilation of the Hadamard-test target series
    report     summary table over run artifacts, or (--objective) each
               qcels run's objective.csv rebuilt from its overlap.csv

A run resolves its settings into one plain dict: the config file first,
command-line overrides on top, then defaults.  results.json is the one
record of a run: the resolved dict and the results, under schema_version
2.  Next to it a run writes only its data: overlap.csv (qcels),
series_compilation.json (recompiled qcels, recompile) and bootstrap.csv
(qcm4 shots).  results.json and ingest_report.json are written with sorted
keys, so identical resolved configurations reproduce them byte for byte;
series_compilation.json keeps its field order.

Exit codes: 0 success, 1 runtime or numerical failure, 2 unreadable or
invalid input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .chem import (
    FermionIntegrals,
    ci_initial_state,
    determinants_from_json,
    jordan_wigner,
    parse_fcidump,
    taper_z2,
)
from .circuits import hea_ansatz, two_qubit_depth
from .pauli import MemoryRefusal, PauliSum, check_memory
from .qcels import (
    OverlapSeries,
    ScaledHamiltonian,
    acquire,
    choose_grid,
    fit,
    hadamard_test_states,
    objective_curve,
    scale,
)
from .qcm4 import (
    bootstrap,
    build_moments,
    cumulants,
    energy,
    estimate,
    moment_report,
    pauli_filter,
    plan,
)
from .recompile import CompileConfig, SeriesCompilation, batch_bytes, compile_series
from .simulator import StateVector

__all__ = ["InputError", "SCHEMA_VERSION", "main", "resolve_config"]

SCHEMA_VERSION = 2

# ingest reports carry a dense ground energy up to this width; a fixed
# width, not a memory rule, so that ingest_report.json is the same on every
# machine (the blocks take 34 MB for a 12-qubit molecular Hamiltonian)
_DENSE_REPORT_CAP = 12


class InputError(Exception):
    """Unreadable or structurally invalid input; mapped to exit code 2."""


# ----------------------------------------------------------------------
# config resolution
# ----------------------------------------------------------------------
class _Above(float):
    """A schema minimum that a value must exceed, not merely reach."""


# Run-config schema, {section: {key: (type, default, minimum, choices)}}.
# A float key takes any finite JSON number and resolves to a float.  The
# two state keys without a default are required by the form that uses them.
# A learning rate at or below 0 would stall Adam or make it climb.
_COMPILE = {
    "layers": (int, 6, 1, None),
    "max_iterations": (int, 500, 1, None),
    "learning_rate": (float, 0.05, _Above(0.0), None),
    "restarts": (int, 3, 1, None),
    "tolerance": (float, 1e-12, 0.0, None),
}
_SERIES = {"n_points": (int, 33, 2, None)}
_SCHEMA = {
    "state": {
        "basis": (int, None, 0, None),
        "determinants": (str, None, None, None),
        "threshold": (float, 0.0, 0.0, None),
    },
    "qcels": _SERIES,
    "qcels.compile": _COMPILE,
    "qcm4": {
        "threshold": (float, 0.0, 0.0, None),
        "filter": (bool, False, None, None),
        "grouping": (str, "full", None, ("full", "qubitwise")),
        "resamples": (int, 500, 2, None),
        "allocation": (str, "uniform", None, ("uniform", "weighted")),
    },
    "recompile": {**_COMPILE, **_SERIES},
}

_MODE_CHOICES = {
    "qcels": ("exact", "shots", "recompiled"),
    "qcm4": ("exact", "shots"),
}

_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
}


def _load_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_json(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where} is not valid JSON: {exc}") from None


def _check_keys(raw: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise InputError(f"unknown {where} key(s): {', '.join(unknown)}")


def _value(
    value: Any,
    where: str,
    kind: type,
    minimum: float | None = None,
    choices: Sequence[str] | None = None,
    maximum: int | None = None,
) -> Any:
    """Checks one config value against its schema entry and returns it."""
    accepted = (int, float) if kind is float else kind
    # bool is an int subclass, so it passes only where a bool is wanted
    if isinstance(value, bool) is not (kind is bool) or not isinstance(
        value, accepted
    ):
        raise InputError(f"{where} must be {_TYPE_NAMES[kind]}")
    try:
        value = kind(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if kind is float and not math.isfinite(value):
        raise InputError(f"{where} must be a finite number")
    if isinstance(minimum, _Above) and value <= minimum:
        raise InputError(f"{where} must be greater than {minimum}")
    if minimum is not None and value < minimum:
        raise InputError(f"{where} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise InputError(f"{where} must be at most {maximum:,}")
    if choices is not None and value not in choices:
        raise InputError(f"{where} must be one of {', '.join(choices)}")
    return value


def _walk(
    raw: Any,
    section: str,
    keys: Sequence[str] | None = None,
    extra: Sequence[str] = (),
) -> dict:
    """Validates a raw config section against its schema entry.

    Missing keys take their defaults.  ``keys`` narrows the entry to the
    keys of one form; ``extra`` names keys the caller resolves itself.
    """
    if not isinstance(raw, Mapping):
        raise InputError(f"{section} must be an object")
    spec = _SCHEMA[section]
    keys = spec if keys is None else keys
    _check_keys(raw, (*keys, *extra), section)
    out = {}
    for key in keys:
        kind, default, minimum, choices = spec[key]
        out[key] = _value(
            raw.get(key, default), f"{section}.{key}", kind, minimum, choices
        )
    return out


def _resolve_state(raw: Any) -> dict:
    if not isinstance(raw, Mapping):
        raise InputError("state must be an object")
    if "basis" in raw:
        return _walk(raw, "state", ("basis",))
    if "determinants" in raw:
        return _walk(raw, "state", ("determinants", "threshold"))
    raise InputError("state needs either 'basis' or 'determinants'")


def _override(
    raw: Mapping,
    key: str,
    flag: Any,
    default: Any,
    kind: type,
    minimum: float | None = None,
    choices: Sequence[str] | None = None,
    maximum: int | None = None,
) -> Any:
    """A top-level setting: the file value, then the flag over it.

    Both are checked, so a bad file value fails even under a flag.  A key
    whose default is None may be absent or null in the file.
    """
    value = raw.get(key, default)
    if value is not None or default is not None:
        value = _value(value, key, kind, minimum, choices, maximum)
    if flag is None:
        return value
    return _value(flag, key, kind, minimum, choices, maximum)


def resolve_config(
    path: Path,
    command: str,
    seed: int | None = None,
    spc: int | None = None,
    mode: str | None = None,
) -> dict:
    """Loads a run config and applies command-line overrides and defaults.

    The returned dict is the complete, validated description of the run;
    it is embedded verbatim in the run's results.json.

    Raises:
        InputError: unreadable file, unknown or ill-typed keys, an
            algorithm mismatch, or an inconsistent mode/spc combination.
    """
    raw = _parse_json(_load_text(path), str(path))
    if not isinstance(raw, Mapping):
        raise InputError("config must be a JSON object")
    _check_keys(
        raw, ("algorithm", "operator", "state", "seed", "spc", "mode", command),
        "config",
    )
    algorithm = raw.get("algorithm", command)
    if algorithm != command:
        raise InputError(
            f"config algorithm {algorithm!r} does not match the {command} command"
        )
    for key in ("operator", "state"):
        if key not in raw:
            raise InputError(f"config needs {key!r}")
    resolved: dict = {
        "algorithm": command,
        "operator": _value(raw["operator"], "operator", str),
        "state": _resolve_state(raw["state"]),
        "seed": _override(raw, "seed", seed, 0, int, minimum=0),
    }

    if command == "recompile":
        if mode is not None or "mode" in raw:
            raise InputError("recompile does not take a mode")
        if spc is not None or "spc" in raw:
            raise InputError("recompile does not take spc")
    else:
        chosen_mode = _override(
            raw, "mode", mode, "exact", str, choices=_MODE_CHOICES[command]
        )
        # shot counts are drawn as int64
        chosen_spc = _override(raw, "spc", spc, None, int, minimum=1, maximum=2**63 - 1)
        if chosen_mode == "shots" and chosen_spc is None:
            raise InputError("shots mode needs spc")
        if chosen_mode == "exact" and chosen_spc is not None:
            raise InputError("exact mode takes no spc")
        resolved["mode"] = chosen_mode
        resolved["spc"] = chosen_spc

    section = raw.get(command, {})
    if not isinstance(section, Mapping):
        raise InputError(f"{command} section must be an object")
    if command == "qcels":
        settings = _walk(section, "qcels", extra=("compile",))
        if resolved["mode"] == "recompiled":
            settings["compile"] = _walk(section.get("compile", {}), "qcels.compile")
        elif "compile" in section:
            raise InputError("qcels.compile requires recompiled mode")
    else:
        settings = _walk(section, command)
    resolved[command] = settings
    return resolved


# ----------------------------------------------------------------------
# input loading and artifact writing
# ----------------------------------------------------------------------
def _resolve_path(base: Path, raw: str) -> Path:
    path = Path(raw)
    return path if path.is_absolute() else base / path


def _load_operator(resolved: Mapping, base: Path) -> PauliSum:
    path = _resolve_path(base, resolved["operator"])
    try:
        h = PauliSum.from_json(_load_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad operator file {path}: {exc}") from None
    if not h.is_hermitian():
        raise InputError(f"bad operator file {path}: Hamiltonian must be Hermitian")
    return h


def _load_state(resolved: Mapping, base: Path, n_qubits: int) -> StateVector:
    try:
        StateVector.check_width(n_qubits)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    spec = resolved["state"]
    if "basis" in spec:
        if spec["basis"] >= (1 << n_qubits):
            raise InputError(
                f"basis index {spec['basis']} outside the {n_qubits}-qubit register"
            )
        return StateVector.basis_state(n_qubits, spec["basis"])
    path = _resolve_path(base, spec["determinants"])
    try:
        norb, dets = determinants_from_json(_load_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad determinant file {path}: {exc}") from None
    if 2 * norb != n_qubits:
        raise InputError(
            f"determinants describe {2 * norb} qubits, operator has {n_qubits}"
        )
    try:
        return ci_initial_state(dets, spec["threshold"], n_qubits)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _assert_finite(node: Any, where: str = "results") -> None:
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite value at {where}")
    elif isinstance(node, Mapping):
        for key, value in node.items():
            _assert_finite(value, f"{where}.{key}")
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _assert_finite(value, f"{where}[{index}]")


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _write_results(out: Path, resolved: Mapping, results: Mapping) -> None:
    _assert_finite(results)
    _write_json(
        out / "results.json",
        {
            "schema_version": SCHEMA_VERSION,
            "algorithm": resolved["algorithm"],
            "config": resolved,
            "results": results,
        },
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _reference_mask(fi: FermionIntegrals) -> int:
    """Aufbau reference determinant used to pick the symmetry sector."""
    if (fi.nelec + fi.ms2) % 2:
        raise InputError("NELEC and MS2 have incompatible parity")
    n_alpha = (fi.nelec + fi.ms2) // 2
    n_beta = fi.nelec - n_alpha
    if not (0 <= n_alpha <= fi.norb and 0 <= n_beta <= fi.norb):
        raise InputError("NELEC/MS2 do not fit in NORB orbitals")
    mask = 0
    for p in range(n_alpha):
        mask |= 1 << (2 * p)
    for p in range(n_beta):
        mask |= 1 << (2 * p + 1)
    return mask


def _dense_ground(h: PauliSum, reference: int | None = None) -> float | None:
    """The lowest eigenvalue of ``h`` over its blocks, or over the cells whose
    indices hold as many α (even) and β (odd) electrons as ``reference``."""
    if h.n_qubits > _DENSE_REPORT_CAP:
        return None
    alpha, lowest = sum(1 << q for q in range(0, h.n_qubits, 2)), []  # even qubits
    for rows, mats in h.blocks():
        for s in (alpha, alpha << 1) if reference is not None else ():  # α, then β
            held = (np.bitwise_count(rows & s) == (reference & s).bit_count()).all(axis=1)
            rows, mats = rows[held], mats[held]
        lowest += [float(np.linalg.eigvalsh(mats).min())] if len(mats) else []
    return min(lowest, default=None)


def _check(key: str, call: Callable, *args: Any) -> Any:
    """``call(*args)``, whose memory refusal exits 2 naming the config ``key``."""
    try:
        return call(*args)
    except MemoryRefusal as exc:
        raise InputError(f"{key}: {exc}") from None


def _check_series(width: int, n_points: int, section: str) -> None:
    """Exit 2 before n_points rows of 2^width amplitudes exceed memory: the
    evolved states (width n), or the Hadamard-test states (n + 1) to compile."""
    _check(f"{section}.n_points", check_memory, 16 * n_points << width,
           f"{n_points:,} time points")


def _shot_bytes(shots: int, n_qubits: int) -> int:
    """Peak bytes of one ``sample_z`` draw: 32 a shot and 32 an amplitude."""
    return 32 * (shots + (1 << n_qubits))


def _bootstrap_bytes(resamples: int, outcomes: int, terms: int) -> int:
    """Peak bytes of :func:`bootstrap` on circuits of at most these sizes."""
    # a resample: the moments, one circuit's draws, their float copy and
    # their moment increments; before the draws, the circuit's table of
    # term signs per outcome, which its outcome weights reduce
    return 8 * resamples * (2 * outcomes + 8) + 24 * outcomes * terms


def cmd_ingest(source: Path, out: Path, taper: bool) -> None:
    try:
        fi = parse_fcidump(_load_text(source))
        mask = _reference_mask(fi)  # the header's electron counts must fit
        h = jordan_wigner(fi)  # its product chains must fit in memory
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from None
    out.mkdir(parents=True, exist_ok=True)
    (out / "operator.json").write_text(h.to_json() + "\n")
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "source": {
            "name": source.name,
            "sha256": hashlib.sha256(source.read_bytes()).hexdigest(),
        },
        "norb": fi.norb,
        "nelec": fi.nelec,
        "ms2": fi.ms2,
        "core_energy": fi.core_energy,
        "qubits": h.n_qubits,
        "n_terms": len(h),
        "ground_energy": _dense_ground(h, mask),
        "taper": None,
    }
    if taper:
        tapering = taper_z2(h, mask)
        reduced = tapering.reduced
        (out / "operator_tapered.json").write_text(reduced.to_json() + "\n")
        report["taper"] = {
            "qubits": reduced.n_qubits,
            "n_terms": len(reduced),
            "generators": [g.to_label() for g in tapering.generators],
            "sector_signs": list(tapering.sector_signs),
            "pivots": list(tapering.pivots),
            "reference_mask": mask,
            "ground_energy": _dense_ground(reduced),
        }
        print(f"qubits before tapering: {h.n_qubits}")
        print(f"qubits after tapering: {reduced.n_qubits}")
    else:
        print(f"qubits: {h.n_qubits}")
    _assert_finite(report, "report")
    _write_json(out / "ingest_report.json", report)


def _compile_hadamard_series(
    sh: ScaledHamiltonian, tau: float, n_points: int, settings: Mapping, seed: int, out: Path,
    section: str,
) -> tuple[SeriesCompilation, int]:
    """Compiles the Hadamard-test state of every time point n tau.

    Exits 2 naming ``<section>.restarts`` before the optimizer's batch would
    exceed memory.  Writes series_compilation.json and returns the
    compilation with the ansatz's two-qubit depth.
    """
    width, layers, restarts = sh.psi.n_qubits + 1, settings["layers"], settings["restarts"]
    # hea_ansatz's parameter count: three rotations a qubit per block, and
    # one entangler per system qubit per layer
    n_params = 3 * width * (layers + 1) + layers * (width - 1)
    _check(f"{section}.restarts", check_memory, batch_bytes(n_points, width, n_params, restarts),
           f"{restarts:,} restarts of {n_params:,} parameters")
    targets = hadamard_test_states(sh, tau, n_points)
    ansatz, _ = hea_ansatz(width, layers)
    config = CompileConfig(
        seed=seed, **{key: settings[key] for key in _COMPILE if key != "layers"}
    )
    compilation = compile_series(targets, ansatz, config, layers=settings["layers"])
    (out / "series_compilation.json").write_text(compilation.to_json() + "\n")
    return compilation, two_qubit_depth(ansatz)


def cmd_qcels(resolved: Mapping, base: Path, out: Path) -> None:
    h = _load_operator(resolved, base)
    psi = _load_state(resolved, base, h.n_qubits)
    settings = resolved["qcels"]
    recompiled = resolved["mode"] == "recompiled"
    _check_series(h.n_qubits + recompiled, settings["n_points"], "qcels")
    sh = _check("operator", scale, h, psi)
    tau = choose_grid(sh, settings["n_points"])

    compilation = None
    depth = None
    if recompiled:
        compilation, depth = _compile_hadamard_series(
            sh, tau, settings["n_points"], settings["compile"], resolved["seed"], out,
            "qcels.compile",
        )

    series = acquire(
        sh, tau,
        n_points=settings["n_points"],
        mode=resolved["mode"],
        spc=resolved["spc"],
        seed=resolved["seed"],
        compilation=compilation,
    )
    (out / "overlap.csv").write_text(series.to_csv())
    result = fit(series, sh)

    results = {
        "energy": result.energy,
        "theta": result.theta,
        "peak": result.peak,
        "h0": sh.h0,
        "h1": sh.h1,
        "tau": tau,
        "n_points": settings["n_points"],
        "qubits": h.n_qubits,
        "mode": resolved["mode"],
        "spc": resolved["spc"],
        "two_qubit_depth": depth,
        "mean_fidelity": None if compilation is None else compilation.mean_fidelity,
    }
    _write_results(out, resolved, results)
    print(f"E* = {result.energy:.10f} Ha")


def cmd_qcm4(resolved: Mapping, base: Path, out: Path) -> None:
    h = _load_operator(resolved, base)
    psi = _load_state(resolved, base, h.n_qubits)
    settings = resolved["qcm4"]
    m = _check("operator", build_moments, h, settings["threshold"])
    filter_report = None
    if settings["filter"]:
        m, filter_report = pauli_filter(m, psi)
    measurement_plan = _check("operator", plan, m, settings["grouping"])
    if resolved["mode"] == "shots":
        # weighted allocation may give one circuit the whole budget
        weighted = settings["allocation"] == "weighted"
        shots = resolved["spc"] * (measurement_plan.n_circuits if weighted else 1)
        _check("spc", check_memory, _shot_bytes(shots, h.n_qubits),
               f"{shots:,} shots of a circuit")
        terms = max((len(c.terms) for c in measurement_plan.circuits), default=0)
        resamples = settings["resamples"]
        cost = _bootstrap_bytes(resamples, min(shots, 1 << h.n_qubits), terms)
        _check("qcm4.resamples", check_memory, cost, f"{resamples:,} resamples")
    est = estimate(
        measurement_plan, psi,
        spc=resolved["spc"],
        seed=resolved["seed"],
        mode=resolved["mode"],
        allocation=settings["allocation"],
    )
    bs = None
    if resolved["mode"] == "shots":
        bs = bootstrap(est, settings["resamples"], resolved["seed"])
        (out / "bootstrap.csv").write_text(bs.to_csv())
    cums = cumulants(est)
    e_qcm4 = energy(cums)

    results = {
        "energy": e_qcm4,
        "cumulants": list(cums),
        "moments": list(est.moments),
        "qubits": h.n_qubits,
        "mode": resolved["mode"],
        "spc": resolved["spc"],
        "two_qubit_depth": max(
            (two_qubit_depth(c.clifford) for c in measurement_plan.circuits),
            default=0,
        ),
        "bootstrap": None if bs is None else {
            "mean": bs.mean,
            "std": bs.std,
            "resamples": bs.resamples,
            "seed": bs.seed,
        },
        **moment_report(m, measurement_plan, filter_report),
    }
    _write_results(out, resolved, results)
    print(f"E_QCM4 = {e_qcm4:.10f} Ha")


def cmd_recompile(resolved: Mapping, base: Path, out: Path) -> None:
    h = _load_operator(resolved, base)
    psi = _load_state(resolved, base, h.n_qubits)
    settings = resolved["recompile"]
    _check_series(h.n_qubits + 1, settings["n_points"], "recompile")
    sh = _check("operator", scale, h, psi)
    tau = choose_grid(sh, settings["n_points"])
    compilation, depth = _compile_hadamard_series(
        sh, tau, settings["n_points"], settings, resolved["seed"], out, "recompile"
    )

    results = {
        "qubits": h.n_qubits,
        "layers": settings["layers"],
        "n_points": settings["n_points"],
        "tau": tau,
        "h0": sh.h0,
        "h1": sh.h1,
        "mean_fidelity": compilation.mean_fidelity,
        "min_fidelity": compilation.min_fidelity,
        "max_fidelity": compilation.max_fidelity,
        "two_qubit_depth": depth,
    }
    _write_results(out, resolved, results)
    print(f"mean fidelity = {compilation.mean_fidelity:.6f}")


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
_REPORT_COLUMNS = (
    "run", "algorithm", "operator", "qubits", "two_qubit_depth",
    "mode", "spc", "energy", "delta_vs_exact",
)


def _report_rows(run_dirs: Sequence[Path]) -> list[dict]:
    rows = []
    for run_dir in run_dirs:
        path = run_dir / "results.json"
        payload = _parse_json(_load_text(path), str(path))
        if not isinstance(payload, Mapping):
            raise InputError(f"{path}: not a results object")
        version = payload.get("schema_version")
        # version 2 only added fields that the report does not read; True
        # == 1 and 1.0 == 1, so the type is checked as well
        if type(version) is not int or version not in (1, SCHEMA_VERSION):
            raise InputError(f"{path}: unsupported schema version {version!r}")
        results = payload.get("results", {})
        config = payload.get("config", {})
        for key, section in (("results", results), ("config", config)):
            if not isinstance(section, Mapping):
                raise InputError(f"{path}: {key} must be an object")
        rows.append({
            "run": run_dir.name,
            "algorithm": payload.get("algorithm"),
            "operator": config.get("operator"),
            "qubits": results.get("qubits"),
            "two_qubit_depth": results.get("two_qubit_depth"),
            "mode": results.get("mode"),
            "spc": results.get("spc"),
            "energy": results.get("energy"),
            "state": json.dumps(config.get("state"), sort_keys=True),
        })
    # reference energy per (algorithm, operator, state): the unique exact-mode run
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row["mode"] == "exact" and isinstance(row["energy"], (int, float)):
            key = (row["algorithm"], row["operator"], row["state"])
            groups.setdefault(key, []).append(row["energy"])
    for row in rows:
        reference = groups.get((row["algorithm"], row["operator"], row["state"]), [])
        if len(reference) == 1 and isinstance(row["energy"], (int, float)):
            row["delta_vs_exact"] = row["energy"] - reference[0]
        else:
            row["delta_vs_exact"] = None
    return rows


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_report(run_dirs: Sequence[Path], out: Path | None) -> None:
    rows = _report_rows(run_dirs)
    lines = [
        "| " + " | ".join(_REPORT_COLUMNS) + " |",
        "|" + "|".join(" --- " for _ in _REPORT_COLUMNS) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_cell(row[c]) for c in _REPORT_COLUMNS) + " |"
        )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.md").write_text(table)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in _REPORT_COLUMNS])
        (out / "report.csv").write_text(buffer.getvalue())


def cmd_objective(run_dirs: Sequence[Path]) -> None:
    """Writes each run's fit objective on its grid, from its overlap.csv."""
    for run_dir in run_dirs:
        path = run_dir / "overlap.csv"
        try:
            series = OverlapSeries.from_csv(_load_text(path))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        lines = ["theta,objective"]
        for theta, value in zip(*objective_curve(series)):
            lines.append(f"{float(theta)!r},{float(value)!r}")
        (run_dir / "objective.csv").write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsee",
        description="Ground-state energy estimation runs and artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="FCIDUMP to operator JSON")
    ingest.add_argument("fcidump", type=Path)
    ingest.add_argument("--out", type=Path, required=True)
    ingest.add_argument(
        "--taper", action="store_true",
        help="also write the Z2-tapered operator",
    )

    for name, blurb in (
        ("qcels", "overlap-series phase estimation run"),
        ("qcm4", "moment/cumulant energy run"),
        ("recompile", "compile the Hadamard-test target series"),
    ):
        run = sub.add_parser(name, help=blurb)
        run.add_argument("--config", type=Path, required=True)
        run.add_argument("--out", type=Path, required=True)
        run.add_argument("--seed", type=int, default=None)
        run.add_argument("--spc", type=int, default=None)
        run.add_argument(
            "--mode", choices=("exact", "shots", "recompiled"), default=None
        )

    report = sub.add_parser("report", help="summarize run artifacts")
    report.add_argument("runs", nargs="*", type=Path)
    target = report.add_mutually_exclusive_group()
    target.add_argument("--out", type=Path, default=None)
    target.add_argument("--objective", action="store_true",
                        help="write each run's objective.csv from its overlap.csv")
    return parser


_RUN_COMMANDS = {"qcels": cmd_qcels, "qcm4": cmd_qcm4, "recompile": cmd_recompile}


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "ingest":
        cmd_ingest(args.fcidump, args.out, args.taper)
        return 0
    if args.command == "report" and args.objective:
        cmd_objective(args.runs)
        return 0
    if args.command == "report":
        cmd_report(args.runs, args.out)
        return 0
    resolved = resolve_config(
        args.config, args.command, seed=args.seed, spc=args.spc, mode=args.mode
    )
    args.out.mkdir(parents=True, exist_ok=True)
    _RUN_COMMANDS[args.command](resolved, args.config.parent, args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
