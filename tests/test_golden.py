"""Golden artifacts: fixed CLI runs on the bundled fixtures against tests/golden/.

Every file the runs write is compared with its committed copy: JSON keys,
integers, strings and booleans exactly, floats to 1e-12 relative.  CSV,
markdown and comment lines are split into fields on ``,``, ``|``, ``=``
and whitespace and compared field by field under the same rule.  BLAS and
LAPACK round differently across CPUs, so exact bytes are a same-machine
check between two checkouts (``tools/regen_golden.py --out DIR``
at each, then ``diff -r``), not this test's.

qcels runs do not write ``objective.csv``; ``gsee report --objective``
rebuilds it from ``overlap.csv``, and one test checks that file on every
fresh qcels run against a phasor-matrix oracle.

The ``*_hf_*`` runs start from the Hartree-Fock determinant, which is not
an eigenstate, and pin today's values, known to be off: qcm4 exact gives
-1.116664077726225 Ha where the standard fourth-order formula gives
-1.137269837289031 (ROADMAP item 1).  The qcels shot fit on the CI
state, ``qcels_shots``, ends on the window edge theta = -pi/4 with a
``delta_vs_exact`` of 0.0 (item 3).  A fix to either shows as a move of
these files in the golden diff.

Regenerate the set with ``python tools/regen_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import phasor_objective
from gsee.cli import main
from gsee.qcels import OverlapSeries

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "gsee" / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

# tiny compile block: one layer, a few dozen Adam steps, one restart
_COMPILE = {"layers": 1, "max_iterations": 40, "restarts": 1}

# two determinants of the untapered 8-qubit spin_polarized model, a state
# off its eigenstates; the model's 5,459 measured strings and products of
# up to 115,199 term pairs take the array paths of gsee.pauli
SPIN_POLARIZED_STATE = {
    "norb": 4,
    "dets": [
        {"mask": "0b00010101", "coeff": 0.9},
        {"mask": "0b01000101", "coeff": -0.4},
    ],
}


def _config(algorithm: str, **settings) -> dict:
    # paths are relative to the config file, so no run location leaks
    # into the results.json the run writes
    return {
        "algorithm": algorithm,
        "operator": "ingest/operator.json",
        "state": {"determinants": "h2_eq_ci.json"},
        "seed": 7,
        **settings,
    }


# the Hartree-Fock determinant 0b0011 of the ingested H2 operator
HF = {"basis": 3}

# run directory -> config; every run reads the ingested H2 operator
RUNS = {
    "qcels_exact": _config("qcels"),
    "qcels_shots": _config("qcels", mode="shots", spc=200),
    "qcels_recompiled": _config(
        "qcels", mode="recompiled", qcels={"n_points": 5, "compile": _COMPILE}
    ),
    "qcm4_exact": _config("qcm4"),
    "qcm4_shots": _config("qcm4", mode="shots", spc=500, qcm4={"resamples": 50}),
    "qcm4_qubitwise_weighted_filtered": _config(
        "qcm4", mode="shots", spc=500,
        qcm4={"grouping": "qubitwise", "allocation": "weighted",
              "filter": True, "resamples": 50},
    ),
    "recompile": _config("recompile", recompile={"n_points": 3, **_COMPILE}),
    "qcm4_8q_exact": _config(
        "qcm4", operator="ingest_8q/operator.json",
        state={"determinants": "spin_polarized_ci.json"},
    ),
    # the qubitwise commutation graph on the same 5,459 strings
    "qcm4_8q_qubitwise": _config(
        "qcm4", operator="ingest_8q/operator.json",
        state={"determinants": "spin_polarized_ci.json"},
        qcm4={"grouping": "qubitwise"},
    ),
    "qcm4_hf_exact": _config("qcm4", state=HF),
    "qcm4_hf_shots": _config(
        "qcm4", state=HF, mode="shots", spc=500, qcm4={"resamples": 50}
    ),
    "qcels_hf_shots": _config("qcels", state=HF, mode="shots", spc=200),
}
RUN_DIRS = ("ingest", "ingest_8q", *RUNS, "report")


def _gsee(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"gsee {' '.join(argv)} exited {code}")


def produce(work: pathlib.Path) -> pathlib.Path:
    """Runs both ingests, every RUNS entry and their report in ``work``."""
    for name in ("h2_eq.fcidump", "h2_eq_ci.json", "spin_polarized.fcidump"):
        shutil.copy(FIXTURES / name, work / name)
    (work / "spin_polarized_ci.json").write_text(json.dumps(SPIN_POLARIZED_STATE))
    _gsee("ingest", str(work / "h2_eq.fcidump"), "--out", str(work / "ingest"),
          "--taper")
    _gsee("ingest", str(work / "spin_polarized.fcidump"), "--out",
          str(work / "ingest_8q"))
    for name, config in RUNS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        _gsee(config["algorithm"], "--config", str(path), "--out", str(work / name))
    _gsee("report", *(str(work / name) for name in RUNS), "--out",
          str(work / "report"))
    return work


def artifacts(work: pathlib.Path) -> dict[str, str]:
    """Text of every file under the run directories, keyed ``run/file``."""
    return {
        f"{run}/{path.name}": path.read_text()
        for run in RUN_DIRS for path in sorted((work / run).iterdir())
    }


def golden_names() -> list[str]:
    return sorted(
        path.relative_to(GOLDEN).as_posix()
        for path in GOLDEN.rglob("*") if path.is_file()
    )


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
_SEPARATORS = re.compile(r"[,|=\s]+")


def _field(text: str) -> int | float | str:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _text_fields(text: str) -> list[list]:
    return [[_field(f) for f in _SEPARATORS.split(line)] for line in text.splitlines()]


def assert_same(got, want, where: str) -> None:
    """Keys, ints, strings and bools exactly; floats to REL_TOL relative."""
    if type(want) is float and type(got) is float:
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )
    elif type(want) is dict:
        assert type(got) is dict and list(got) == list(want), (
            f"{where}: keys {list(got)} != {list(want)}"
        )
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif type(want) is list:
        assert type(got) is list and len(got) == len(want), (
            f"{where}: {len(got)} entries != {len(want)}"
        )
        for index, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{index}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    work = produce(tmp_path_factory.mktemp("golden"))
    return work, artifacts(work)


def test_same_artifact_files(fresh):
    _, got = fresh
    assert sorted(got) == golden_names()


@pytest.mark.parametrize("name", golden_names())
def test_artifact_matches_golden(fresh, name):
    _, got = fresh
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        assert_same(json.loads(got[name]), json.loads(want), name)
    else:
        assert_same(_text_fields(got[name]), _text_fields(want), name)


@pytest.mark.parametrize("run", [r for r, c in RUNS.items() if c["algorithm"] == "qcels"])
def test_objective_curve_covers_the_grid(fresh, run):
    work, _ = fresh
    _gsee("report", "--objective", str(work / run))
    lines = (work / run / "objective.csv").read_text().splitlines()
    assert lines[0] == "theta,objective"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (20_001, 2)
    assert np.array_equal(rows[:, 0], np.linspace(-math.pi / 4.0, math.pi / 4.0, 20_001))
    series = OverlapSeries.from_csv((work / run / "overlap.csv").read_text())
    want = phasor_objective(series.values, series.tau, rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - want)) <= 1e-13 * np.max(rows[:, 1])


def test_drift_table_counts_moved_fields(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for side, text in ((base, "a,1.0,2.0,x\n"), (head, "a,1.5,2.0,y\n")):
        (side / "run").mkdir(parents=True)
        (side / "run" / "moved.csv").write_text(text)
        (side / "run" / "same.csv").write_text("b,3.0\n")
    (base / "run" / "table.md").write_text("| 1.0 |\n")
    (head / "run" / "table.md").write_text("| 1.0 | 2.0 |\n")
    (head / "run" / "new.json").write_text("{}\n")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_drift.py"), str(base), str(head)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert [line.split(None, 1) for line in out] == [
        ["run/moved.csv", "1 floats, largest relative move 0.333, 1 other fields"],
        ["run/new.json", "only in head"],
        ["run/table.md", "layout differs"],
        ["3", "of 4 files differ"],
    ]
