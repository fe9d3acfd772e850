"""Config resolution, run artifacts, report generation, and exit codes."""

import hashlib
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from helpers import eig, random_state, sector_ground, z_padded_sum
from gsee import cli, pauli
from gsee.chem import jordan_wigner, parse_fcidump
from gsee.cli import InputError, SCHEMA_VERSION, main, resolve_config
from gsee.pauli import PauliString, PauliSum
from gsee.qcm4 import bootstrap, build_moments, estimate, pauli_filter, plan
from gsee.circuits import hea_ansatz
from gsee.recompile import CompileConfig, batch_bytes
from gsee.simulator import StateVector, sample_z

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"
H2_FCIDUMP = FIXTURES / "h2_eq.fcidump"
H2_CI = FIXTURES / "h2_eq_ci.json"
TOY_3Q = FIXTURES / "toy_3q.json"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def ingest_h2(tmp_path, taper=False):
    out = tmp_path / "ingested"
    argv = ["ingest", str(H2_FCIDUMP), "--out", str(out)]
    if taper:
        argv.append("--taper")
    assert main(argv) == 0
    return out


def h2_config(tmp_path, algorithm, **extra):
    operator = ingest_h2(tmp_path) / "operator.json"
    payload = {
        "algorithm": algorithm,
        "operator": str(operator),
        "state": {"determinants": str(H2_CI), "threshold": 0.0},
        "seed": 3,
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


def run_results(out_dir):
    return json.loads((out_dir / "results.json").read_text())


def dense_ground(path):
    return float(eig(PauliSum.from_json(path.read_text()))[0][0])


class TestResolveConfig:
    def test_defaults_filled(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {"basis": 0},
        })
        resolved = resolve_config(path, "qcm4")
        assert resolved["seed"] == 0
        assert resolved["mode"] == "exact"
        assert resolved["spc"] is None
        assert resolved["qcm4"] == {
            "threshold": 0.0,
            "filter": False,
            "grouping": "full",
            "resamples": 500,
            "allocation": "uniform",
        }

    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {"basis": 0},
            "seed": 5,
            "mode": "exact",
        })
        resolved = resolve_config(path, "qcm4", seed=11, spc=200, mode="shots")
        assert resolved["seed"] == 11
        assert resolved["spc"] == 200
        assert resolved["mode"] == "shots"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {"basis": 0},
            "shots": 100,
        })
        with pytest.raises(InputError, match="shots"):
            resolve_config(path, "qcm4")

    def test_unknown_nested_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {"basis": 0, "extra": 1},
        })
        with pytest.raises(InputError, match="state"):
            resolve_config(path, "qcm4")
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {"basis": 0},
            "qcm4": {"filtering": True},
        })
        with pytest.raises(InputError, match="filtering"):
            resolve_config(path, "qcm4")

    @pytest.mark.parametrize("command", ["qcels", "recompile"])
    def test_retired_fallback_norm_key_exits_2(self, tmp_path, capsys, command):
        config = h2_config(
            tmp_path, command, **{command: {"fallback_norm": False}}
        )
        code = main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"unknown {command} key(s): fallback_norm" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, section", [
        ("recompile", "recompile"), ("qcels", "qcels.compile"),
    ])
    def test_retired_warm_start_key_exits_2(self, tmp_path, capsys, command, section):
        if command == "recompile":
            extra = {"recompile": {"warm_start": True}}
        else:
            extra = {"mode": "recompiled", "qcels": {"compile": {"warm_start": True}}}
        config = h2_config(tmp_path, command, **extra)
        code = main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"unknown {section} key(s): warm_start" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_algorithm_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcels",
            "operator": "op.json",
            "state": {"basis": 0},
        })
        with pytest.raises(InputError, match="does not match"):
            resolve_config(path, "qcm4")

    def test_mode_spc_consistency(self, tmp_path):
        base = {"algorithm": "qcm4", "operator": "op.json", "state": {"basis": 0}}
        path = write_config(tmp_path, dict(base, mode="shots"))
        with pytest.raises(InputError, match="spc"):
            resolve_config(path, "qcm4")
        path = write_config(tmp_path, dict(base, mode="exact", spc=100))
        with pytest.raises(InputError, match="exact"):
            resolve_config(path, "qcm4")
        path = write_config(tmp_path, dict(base, mode="recompiled"))
        with pytest.raises(InputError, match="mode"):
            resolve_config(path, "qcm4")

    def test_recompile_takes_no_mode_or_spc(self, tmp_path):
        base = {
            "algorithm": "recompile",
            "operator": "op.json",
            "state": {"basis": 0},
        }
        path = write_config(tmp_path, base)
        resolved = resolve_config(path, "recompile")
        assert resolved["recompile"]["layers"] == 6
        assert "mode" not in resolved
        with pytest.raises(InputError, match="mode"):
            resolve_config(path, "recompile", mode="exact")
        path = write_config(tmp_path, dict(base, spc=10))
        with pytest.raises(InputError, match="spc"):
            resolve_config(path, "recompile")

    def test_compile_section_requires_recompiled_mode(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcels",
            "operator": "op.json",
            "state": {"basis": 0},
            "qcels": {"compile": {"layers": 2}},
        })
        with pytest.raises(InputError, match="recompiled"):
            resolve_config(path, "qcels")
        resolved = resolve_config(path, "qcels", mode="recompiled")
        assert resolved["qcels"]["compile"]["layers"] == 2
        assert resolved["qcels"]["compile"]["restarts"] == 3

    def test_state_needs_basis_or_determinants(self, tmp_path):
        path = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": "op.json",
            "state": {},
        })
        with pytest.raises(InputError, match="basis"):
            resolve_config(path, "qcm4")

    def test_type_errors_rejected(self, tmp_path):
        base = {"algorithm": "qcm4", "operator": "op.json", "state": {"basis": 0}}
        path = write_config(tmp_path, dict(base, seed=True))
        with pytest.raises(InputError, match="integer"):
            resolve_config(path, "qcm4")
        path = write_config(tmp_path, dict(base, spc=0, mode="shots"))
        with pytest.raises(InputError, match="at least 1"):
            resolve_config(path, "qcm4")

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        config = h2_config(tmp_path, "qcels")
        code = main(["qcels", "--config", str(config), "--out",
                     str(tmp_path / "run"), "--mode", "shots", "--spc", "10",
                     "--seed", "-1"])
        assert code == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_in_file_exits_2(self, tmp_path, capsys):
        config = h2_config(tmp_path, "qcm4", seed=-2)
        code = main(["qcm4", "--config", str(config), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_file_values_checked_under_flags(self, tmp_path, capsys):
        for case, (extra, message) in enumerate((
            ({"seed": "abc", "mode": "bogus"}, "seed must be an integer"),
            ({"mode": "bogus"}, "mode must be one of exact, shots"),
            ({"spc": -3}, "spc must be at least 1"),
            ({"spc": 2**63}, "spc must be at most 9,223,372,036,854,775,807"),
        )):
            config = h2_config(tmp_path / str(case), "qcm4", **extra)
            code = main(["qcm4", "--config", str(config), "--out",
                         str(tmp_path / "run"), "--seed", "5", "--mode", "shots",
                         "--spc", "10"])
            assert code == 2, extra
            assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        path = h2_config(tmp_path / "ok", "qcm4", seed=0, mode="exact")
        resolved = resolve_config(path, "qcm4", seed=5, spc=10, mode="shots")
        assert (resolved["seed"], resolved["mode"], resolved["spc"]) == (
            5, "shots", 10
        )

    def test_non_finite_numbers_exit_2(self, tmp_path, capsys):
        # json.loads reads NaN and Infinity; none may reach a run or an artifact
        state = {"determinants": str(H2_CI), "threshold": math.nan}
        for case, (command, extra, path) in enumerate((
            ("qcm4", {"qcm4": {"threshold": math.nan}}, "qcm4.threshold"),
            ("recompile", {"recompile": {"learning_rate": math.inf}},
             "recompile.learning_rate"),
            ("qcm4", {"state": state}, "state.threshold"),
        )):
            config = h2_config(tmp_path / str(case), command, **extra)
            code = main([command, "--config", str(config), "--out",
                         str(tmp_path / "run")])
            assert code == 2, path
            assert f"{path} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# learning_rate's floor is exclusive, so TestCompileFloors checks it
_COMPILE_KEYS = {
    "layers": ("int", 6, 1, None),
    "max_iterations": ("int", 500, 1, None),
    "learning_rate": ("number", 0.05, None, None),
    "restarts": ("int", 3, 1, None),
    "tolerance": ("number", 1e-12, 0.0, None),
}
_SERIES_KEYS = {"n_points": ("int", 33, 2, None)}
# Expected run-config schema, written out independently of cli.py:
# {section: {key: (kind, default, minimum, choices)}}.
CONFIG_SCHEMA = {
    "qcm4": {
        "threshold": ("number", 0.0, 0.0, None),
        "filter": ("bool", False, None, None),
        "grouping": ("str", "full", None, ("full", "qubitwise")),
        "resamples": ("int", 500, 2, None),
        "allocation": ("str", "uniform", None, ("uniform", "weighted")),
    },
    "qcels": _SERIES_KEYS,
    "qcels.compile": _COMPILE_KEYS,
    "recompile": {**_COMPILE_KEYS, **_SERIES_KEYS},
}
KIND_NAMES = {
    "int": "an integer",
    "number": "a number",
    "bool": "true or false",
    "str": "a string",
}
WRONG_TYPES = {
    "int": ("3", 2.5, True, None),
    "number": ("0.5", True, None, [1.0]),
    "bool": (1, 0, "true", None),
    "str": (1, True, None, ["full"]),
}
SCHEMA_KEYS = [
    (section, key) for section, keys in CONFIG_SCHEMA.items() for key in keys
]
MINIMUM_KEYS = [(s, k) for s, k in SCHEMA_KEYS if CONFIG_SCHEMA[s][k][2] is not None]
CHOICE_KEYS = [(s, k) for s, k in SCHEMA_KEYS if CONFIG_SCHEMA[s][k][3] is not None]
NUMBER_KEYS = [(s, k) for s, k in SCHEMA_KEYS if CONFIG_SCHEMA[s][k][0] == "number"]


def resolve_section(tmp_path, section, body):
    """Resolves a config whose ``section`` is ``body``; returns that section."""
    command = section.split(".")[0]
    payload = {"algorithm": command, "operator": "op.json", "state": {"basis": 0}}
    mode = None
    if section == "qcels.compile":
        payload["qcels"] = {"compile": body}
        mode = "recompiled"
    else:
        payload[command] = body
    resolved = resolve_config(write_config(tmp_path, payload), command, mode=mode)
    return resolved["qcels"]["compile"] if mode else resolved[command]


class TestConfigSchema:
    @pytest.mark.parametrize("section", sorted(CONFIG_SCHEMA))
    def test_empty_section_resolves_to_typed_defaults(self, tmp_path, section):
        got = resolve_section(tmp_path, section, {})
        expected = {
            key: default for key, (_, default, _, _) in CONFIG_SCHEMA[section].items()
        }
        if section == "qcels":
            got = {k: v for k, v in got.items() if k != "compile"}
        assert got == expected
        for key, value in got.items():
            assert type(value) is type(expected[key]), (section, key)

    @pytest.mark.parametrize(("section", "key"), SCHEMA_KEYS)
    def test_wrong_type_names_the_path(self, tmp_path, section, key):
        kind = CONFIG_SCHEMA[section][key][0]
        for value in WRONG_TYPES[kind]:
            with pytest.raises(InputError) as info:
                resolve_section(tmp_path, section, {key: value})
            assert str(info.value) == f"{section}.{key} must be {KIND_NAMES[kind]}"

    @pytest.mark.parametrize(("section", "key"), MINIMUM_KEYS)
    def test_minimum_is_enforced(self, tmp_path, section, key):
        kind, _, minimum, _ = CONFIG_SCHEMA[section][key]
        got = resolve_section(tmp_path, section, {key: minimum})
        assert got[key] == minimum
        below = minimum - 1 if kind == "int" else minimum - 0.5
        with pytest.raises(InputError) as info:
            resolve_section(tmp_path, section, {key: below})
        assert str(info.value) == f"{section}.{key} must be at least {minimum}"

    @pytest.mark.parametrize(("section", "key"), CHOICE_KEYS)
    def test_choices_are_enforced(self, tmp_path, section, key):
        choices = CONFIG_SCHEMA[section][key][3]
        for choice in choices:
            assert resolve_section(tmp_path, section, {key: choice})[key] == choice
        with pytest.raises(InputError) as info:
            resolve_section(tmp_path, section, {key: "bogus"})
        assert str(info.value) == (
            f"{section}.{key} must be one of {', '.join(choices)}"
        )

    @pytest.mark.parametrize(("section", "key"), NUMBER_KEYS)
    def test_number_fields_resolve_to_float(self, tmp_path, section, key):
        got = resolve_section(tmp_path, section, {key: 1})[key]
        assert type(got) is float and got == 1.0

    @pytest.mark.parametrize(("section", "key"), NUMBER_KEYS)
    @pytest.mark.parametrize(
        "value",
        # a JSON integer too large for a float
        [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400")],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, section, key, value):
        with pytest.raises(InputError) as info:
            resolve_section(tmp_path, section, {key: value})
        assert str(info.value) == f"{section}.{key} must be a finite number"

    @pytest.mark.parametrize("section", sorted(CONFIG_SCHEMA))
    def test_unknown_key_names_the_section(self, tmp_path, section):
        with pytest.raises(InputError) as info:
            resolve_section(tmp_path, section, {"zeta": 1, "alpha": 2})
        assert str(info.value) == f"unknown {section} key(s): alpha, zeta"

    def test_state_forms(self, tmp_path):
        base = {"algorithm": "qcm4", "operator": "op.json"}
        cases = [
            ({"basis": -1}, "state.basis must be at least 0"),
            ({"basis": 1.0}, "state.basis must be an integer"),
            ({"determinants": 3}, "state.determinants must be a string"),
            ({"determinants": "d.json", "threshold": "0"},
             "state.threshold must be a number"),
            ({"determinants": "d.json", "threshold": -0.5},
             "state.threshold must be at least 0.0"),
            ({"determinants": "d.json", "threshold": math.nan},
             "state.threshold must be a finite number"),
            ({"determinants": "d.json", "threshold": -math.inf},
             "state.threshold must be a finite number"),
            ({"basis": 0, "threshold": 0.0}, "unknown state key(s): threshold"),
            ([0], "state must be an object"),
        ]
        for state, message in cases:
            path = write_config(tmp_path, dict(base, state=state))
            with pytest.raises(InputError) as info:
                resolve_config(path, "qcm4")
            assert str(info.value) == message
        path = write_config(tmp_path, dict(base, state={"determinants": "d.json"}))
        state = resolve_config(path, "qcm4")["state"]
        assert state == {"determinants": "d.json", "threshold": 0.0}
        assert type(state["threshold"]) is float
        path = write_config(tmp_path, dict(base, state={"basis": 3}))
        assert resolve_config(path, "qcm4")["state"] == {"basis": 3}


class TestCompileFloors:
    # a rate at or below 0 stalls Adam or makes it climb the objective
    @pytest.mark.parametrize("command", ["recompile", "qcels"])
    @pytest.mark.parametrize(
        ("key", "value", "rule"),
        [
            ("learning_rate", 0.0, "must be greater than 0.0"),
            ("learning_rate", -1.0, "must be greater than 0.0"),
            ("tolerance", -1.0, "must be at least 0.0"),
        ],
    )
    def test_floor_exits_2_naming_the_key(
        self, tmp_path, capsys, command, key, value, rule
    ):
        payload = {
            "algorithm": command,
            "operator": str(TOY_3Q),
            "state": {"basis": 1},
        }
        if command == "recompile":
            payload["recompile"] = {key: value}
            path = f"recompile.{key}"
        else:
            payload["mode"] = "recompiled"
            payload["qcels"] = {"compile": {key: value}}
            path = f"qcels.compile.{key}"
        config = write_config(tmp_path, payload)
        code = main([command, "--config", str(config), "--out",
                     str(tmp_path / "run")])
        assert code == 2
        assert f"{path} {rule}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_smallest_positive_rate_and_zero_tolerance_resolve(self, tmp_path):
        body = {"learning_rate": math.ulp(0.0), "tolerance": 0.0}
        got = resolve_section(tmp_path, "recompile", body)
        assert (got["learning_rate"], got["tolerance"]) == (math.ulp(0.0), 0.0)


class TestIngest:
    def test_h2_operator(self, tmp_path, capsys):
        out = ingest_h2(tmp_path)
        assert "qubits: 4" in capsys.readouterr().out
        h = PauliSum.from_json((out / "operator.json").read_text())
        assert h.n_qubits == 4
        assert len(h) == 15
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["qubits"] == 4
        assert report["taper"] is None
        assert report["ground_energy"] == pytest.approx(-1.137270, abs=1e-6)

    def test_ground_energy_is_the_header_sector_s(self, tmp_path):
        # NELEC 3, MS2 3: three alpha electrons and no beta one; the
        # lowest energy over all electron counts lies in (2, 1)
        out = tmp_path / "ingested"
        fcidump = FIXTURES / "spin_polarized.fcidump"
        assert main(["ingest", str(fcidump), "--out", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        h = PauliSum.from_json((out / "operator.json").read_text())
        assert (report["nelec"], report["ms2"]) == (3, 3)
        assert abs(report["ground_energy"] - sector_ground(h, 3, 0)) <= 1e-10
        assert sector_ground(h, 2, 1) < report["ground_energy"] - 0.1

    def test_taper_preserves_ground_energy(self, tmp_path, capsys):
        out = ingest_h2(tmp_path, taper=True)
        printed = capsys.readouterr().out
        assert "qubits before tapering: 4" in printed
        assert "qubits after tapering:" in printed
        report = json.loads((out / "ingest_report.json").read_text())
        taper = report["taper"]
        assert taper["qubits"] < 4
        assert taper["ground_energy"] == pytest.approx(
            report["ground_energy"], abs=1e-9
        )
        reduced = PauliSum.from_json((out / "operator_tapered.json").read_text())
        assert reduced.n_qubits == taper["qubits"]

    def test_report_names_source_by_content(self, tmp_path, capsys):
        out = ingest_h2(tmp_path, taper=True)
        copy = tmp_path / "elsewhere" / H2_FCIDUMP.name
        copy.parent.mkdir()
        copy.write_bytes(H2_FCIDUMP.read_bytes())
        moved = tmp_path / "moved"
        assert main(["ingest", str(copy), "--out", str(moved), "--taper"]) == 0
        report = (out / "ingest_report.json").read_text()
        assert (moved / "ingest_report.json").read_text() == report
        assert json.loads(report)["source"] == {
            "name": "h2_eq.fcidump",
            "sha256": hashlib.sha256(H2_FCIDUMP.read_bytes()).hexdigest(),
        }

    def test_reingest_is_byte_identical(self, tmp_path):
        first = ingest_h2(tmp_path / "a")
        second = ingest_h2(tmp_path / "b")
        assert (first / "operator.json").read_bytes() == (
            second / "operator.json"
        ).read_bytes()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.fcidump"), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_body_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcidump"
        bad.write_text(
            "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 1 0 0\nbogus line here\n"
        )
        code = main(["ingest", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("header, message, taper", [
        pytest.param(header, message, taper, id=header if taper else f"{header}-plain")
        for header, message in [
            ("NELEC=0,MS2=-2", "do not fit"), ("NELEC=0,MS2=2", "do not fit"),
            ("NELEC=4,MS2=-6", "do not fit"), ("NELEC=5,MS2=1", "do not fit"),
            ("NELEC=5,MS2=0", "incompatible parity"),
        ]
        for taper in (True, False)
    ])
    def test_impossible_spin_counts_exit_2(self, tmp_path, capsys, header, message,
                                           taper):
        # NELEC=0, MS2=-2 asks for -1 alpha and 1 beta electrons; the header
        # is checked on every ingest, tapered or not
        bad = tmp_path / "bad.fcidump"
        bad.write_text(f"&FCI NORB=2,{header},\n&END\n0.5 1 1 0 0\n")
        args = ["ingest", str(bad), "--out", str(tmp_path / "out")]
        assert main(args + ["--taper"] * taper) == 2
        assert message in capsys.readouterr().err


class TestNonFiniteInputs:
    # NaN fails every comparison, so the purge of PauliSum and the
    # determinant threshold would drop it without a word
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_fcidump_value_exits_2_with_line(self, tmp_path, capsys, value):
        lines = H2_FCIDUMP.read_text().splitlines()
        lines[5] = f" {value}   2   1   2   1"
        bad = tmp_path / "bad.fcidump"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["ingest", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 6" in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["qcm4", "qcels"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_operator_coefficient_exits_2(self, tmp_path, capsys, command, value):
        config = h2_config(tmp_path, command)
        operator = tmp_path / "ingested" / "operator.json"
        payload = json.loads(operator.read_text())
        payload["terms"][-1]["coeff"][0] = value
        operator.write_text(json.dumps(payload))
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(operator) in err and "non-finite" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_determinant_coefficient_exits_2(self, tmp_path, capsys, value):
        payload = json.loads(H2_CI.read_text())
        payload["dets"][1]["coeff"] = value
        ci = tmp_path / "ci.json"
        ci.write_text(json.dumps(payload))
        config = h2_config(
            tmp_path, "qcm4", state={"determinants": str(ci), "threshold": 0.0}
        )
        assert main(["qcm4", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(ci) in err and "non-finite" in err


def assert_operator_exits_2(tmp_path, capsys, command, operator_json, message):
    operator = tmp_path / "op.json"
    operator.write_text(json.dumps(operator_json))
    payload = {"algorithm": command, "operator": "op.json", "state": {"basis": 0}}
    if command == "recompile":
        payload["recompile"] = {"layers": 1, "max_iterations": 1, "restarts": 1}
    config = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad operator file {operator}: {message}" in err
    assert not (out / "results.json").exists()


class TestOperatorFiles:
    @pytest.mark.parametrize("command", ["qcels", "qcm4", "recompile"])
    @pytest.mark.parametrize("term, message", [
        ({"coeff": [0.3, 0.2], "paulis": "Z0"}, "Hamiltonian must be Hermitian"),
        ({"coeff": [0.3, 0.0], "paulis": 5}, "Pauli label 5 is not a string"),
        ({"coeff": [0.3, 0.0], "paulis": "Q0"}, "malformed Pauli token 'Q0'"),
        ({"coeff": [0.3, 0.0], "paulis": "X"}, "malformed Pauli token 'X'"),
        ({"coeff": [0.3, 0.0], "paulis": "Z0 X0.5"}, "malformed Pauli token 'X0.5'"),
        ({"coeff": [0.3, 0.0], "paulis": "X0 z0"}, "qubit 0 appears twice in 'X0 z0'"),
        ({"coeff": [0.3, 0.0], "paulis": "X123456789012345678901234"},
         "malformed Pauli token 'X123456789012345678901234'"),
        ({"coeff": [0.3, 0.0], "paulis": "X4 Z0"}, "term 'Z0 X4' exceeds register width 1"),
        ({"coeff": [float("nan"), 0.0], "paulis": "Z0"}, "non-finite term coefficient"),
        ({"coeff": [0.3, float("inf")], "paulis": "Z0"}, "non-finite term coefficient"),
    ], ids=["non_hermitian", "label_not_string", "unknown_axis", "no_index",
            "fractional_index", "repeated_qubit", "huge_index", "past_width", "nan",
            "infinite"])
    def test_invalid_operator_exits_2(self, tmp_path, capsys, command, term, message):
        assert_operator_exits_2(
            tmp_path, capsys, command, {"n_qubits": 1, "terms": [term]}, message
        )

    @pytest.mark.parametrize("command", ["qcels", "qcm4", "recompile"])
    @pytest.mark.parametrize("width, message", [
        (1.0, "n_qubits must be an integer"),
        ("1", "n_qubits must be an integer"),
        (True, "n_qubits must be an integer"),
        (-1, "register width must be non-negative"),
    ], ids=["float", "string", "bool", "negative"])
    def test_invalid_width_exits_2(self, tmp_path, capsys, command, width, message):
        terms = [{"coeff": [0.3, 0.0], "paulis": "Z0"}]
        assert_operator_exits_2(
            tmp_path, capsys, command, {"n_qubits": width, "terms": terms}, message
        )


class TestNoStringHashing:
    """The qcm4 and qcels run paths read the operator's arrays and hash no
    ``PauliString``."""

    @pytest.mark.parametrize("command, argv, extra", [
        ("qcm4", [], {}),
        ("qcm4", [], {"qcm4": {"filter": True, "grouping": "qubitwise"}}),
        ("qcm4", ["--mode", "shots", "--spc", "100"], {"qcm4": {"filter": True}}),
        ("qcels", ["--mode", "shots", "--spc", "100"], {}),
    ], ids=["qcm4", "qcm4-filter-qubitwise", "qcm4-filter-shots", "qcels-shots"])
    def test_runs_hash_no_string(self, tmp_path, monkeypatch, command, argv, extra):
        config = h2_config(tmp_path, command, **extra)

        def refuse(string):
            raise AssertionError(f"hashed {string}")

        monkeypatch.setattr(PauliString, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed"):
            {PauliString(1, 0)}
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out), *argv]) == 0
        assert (out / "results.json").exists()


class TestQcelsRun:
    def test_exact_run_recovers_dense_ground(self, tmp_path):
        config = h2_config(tmp_path, "qcels")
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out)]) == 0
        payload = run_results(out)
        assert payload["schema_version"] == SCHEMA_VERSION
        results = payload["results"]
        exact = dense_ground(tmp_path / "ingested" / "operator.json")
        assert abs(results["energy"] - exact) <= 1e-6 * max(1.0, results["h1"])
        assert results["mode"] == "exact"
        assert results["spc"] is None
        assert (out / "overlap.csv").exists()
        assert not (out / "objective.csv").exists()
        assert main(["report", "--objective", str(out)]) == 0
        assert (out / "objective.csv").read_text().startswith("theta,objective\n")

    def test_exact_run_on_fifteen_qubits(self, tmp_path):
        # memory, not register width, bounds the dense path
        h, _ = z_padded_sum(np.random.default_rng(15), 15)
        (tmp_path / "op.json").write_text(h.to_json())
        config = write_config(tmp_path, {
            "algorithm": "qcels", "operator": "op.json", "state": {"basis": 0},
        })
        out = tmp_path / "run"
        argv = ["qcels", "--config", str(config), "--out", str(out), "--mode", "exact"]
        assert main(argv) == 0
        assert math.isfinite(run_results(out)["results"]["energy"])

    def test_identical_config_reproduces_bytes(self, tmp_path):
        config = h2_config(tmp_path, "qcels")
        argv = ["qcels", "--config", str(config), "--mode", "shots",
                "--spc", "100"]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        reference = (tmp_path / "r1" / "results.json").read_bytes()
        assert (tmp_path / "r2" / "results.json").read_bytes() == reference
        overlap = (tmp_path / "r1" / "overlap.csv").read_bytes()
        assert (tmp_path / "r2" / "overlap.csv").read_bytes() == overlap

    def test_shot_run_stderr_columns_obey_formula(self, tmp_path):
        config = h2_config(tmp_path, "qcels")
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out),
                     "--mode", "shots", "--spc", "100"]) == 0
        lines = (out / "overlap.csv").read_text().splitlines()
        assert lines[1] == "n,t,re,im,stderr_re,stderr_im"
        for row in lines[2:]:
            _, _, re, im, err_re, err_im = (float(x) for x in row.split(","))
            assert err_re == math.sqrt((1.0 - re * re) / 100)
            assert err_im == math.sqrt((1.0 - im * im) / 100)

    def test_embedded_config_carries_overrides(self, tmp_path):
        config = h2_config(tmp_path, "qcels")
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out),
                     "--mode", "shots", "--spc", "250", "--seed", "9"]) == 0
        embedded = run_results(out)["config"]
        assert embedded["spc"] == 250
        assert embedded["seed"] == 9
        assert embedded["mode"] == "shots"

    def test_identity_operator_exits_1(self, tmp_path, capsys):
        operator = tmp_path / "identity.json"
        operator.write_text(PauliSum(1, {PauliString(): 2.0}).to_json())
        config = write_config(tmp_path, {
            "algorithm": "qcels",
            "operator": str(operator),
            "state": {"basis": 0},
        })
        code = main(["qcels", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "identity" in capsys.readouterr().err


class TestQcm4Run:
    def test_exact_run_matches_dense_ground(self, tmp_path):
        config = h2_config(tmp_path, "qcm4", qcm4={"filter": True})
        out = tmp_path / "run"
        assert main(["qcm4", "--config", str(config), "--out", str(out)]) == 0
        results = run_results(out)["results"]
        exact = dense_ground(tmp_path / "ingested" / "operator.json")
        assert results["energy"] == pytest.approx(exact, abs=1e-10)
        assert results["term_counts"] == [15, 24, 24, 24]
        assert results["bootstrap"] is None
        assert results["n_circuits"] >= 1

    def test_shot_run_writes_bootstrap(self, tmp_path):
        config = h2_config(tmp_path, "qcm4", qcm4={"resamples": 50})
        out = tmp_path / "run"
        assert main(["qcm4", "--config", str(config), "--out", str(out),
                     "--mode", "shots", "--spc", "2000"]) == 0
        results = run_results(out)["results"]
        assert results["bootstrap"]["resamples"] == 50
        assert results["bootstrap"]["std"] > 0
        rows = (out / "bootstrap.csv").read_text().splitlines()
        assert rows[0] == "resample,energy"
        assert len(rows) == 51

    def test_moment_report_written(self, tmp_path):
        config = h2_config(tmp_path, "qcm4", qcm4={"filter": True})
        out = tmp_path / "run"
        assert main(["qcm4", "--config", str(config), "--out", str(out)]) == 0
        results = run_results(out)["results"]
        assert results["term_counts"] == [15, 24, 24, 24]
        assert results["n_circuits"] >= 1
        assert results["filter"] is not None
        assert not (out / "moment_report.json").exists()

    def test_filter_block_is_the_runs_filter_report(self, tmp_path, monkeypatch):
        reports = []

        def recording(m, psi):
            filtered, report = pauli_filter(m, psi)
            reports.append(report)
            return filtered, report

        monkeypatch.setattr(cli, "pauli_filter", recording)
        # the HF determinant, on which many strings vanish and are dropped
        unfiltered = h2_config(tmp_path, "qcm4", state={"basis": 3})
        off, on = tmp_path / "off", tmp_path / "on"
        assert main(["qcm4", "--config", str(unfiltered), "--out", str(off)]) == 0
        filtered = h2_config(tmp_path, "qcm4", state={"basis": 3}, qcm4={"filter": True})
        assert main(["qcm4", "--config", str(filtered), "--out", str(on)]) == 0
        assert run_results(off)["results"]["filter"] is None
        (report,) = reports
        assert report.audited
        assert run_results(on)["results"]["filter"] == {
            "tol": report.tol,
            "evaluated": report.evaluated,
            "survivors": list(report.survivors),
            "dropped": len(report.audited),
        }

    def test_weighted_single_shot_run_gives_every_circuit_a_shot(self, tmp_path):
        # with one shot per circuit on average, the floors of the many light
        # circuits once overspent the budget and left the heaviest with -6
        ingested = tmp_path / "ingested"
        assert main(["ingest", str(FIXTURES / "spin_polarized.fcidump"),
                     "--out", str(ingested)]) == 0
        config = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": str(ingested / "operator.json"),
            "state": {"basis": 21},
            "qcm4": {"allocation": "weighted"},
        })
        out = tmp_path / "run"
        assert main(["qcm4", "--config", str(config), "--out", str(out),
                     "--mode", "shots", "--spc", "1"]) == 0
        assert run_results(out)["results"]["spc"] == 1

    def test_width_mismatch_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": str(TOY_3Q),
            "state": {"determinants": str(H2_CI)},
        })
        code = main(["qcm4", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "qubits" in capsys.readouterr().err

    def test_basis_index_out_of_range_exits_2(self, tmp_path):
        config = write_config(tmp_path, {
            "algorithm": "qcm4",
            "operator": str(TOY_3Q),
            "state": {"basis": 8},
        })
        assert main(["qcm4", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2


class TestRegisterCap:
    @pytest.mark.parametrize("form", ["basis", "determinants"])
    def test_over_wide_register_exits_2_before_allocating(
        self, tmp_path, capsys, form
    ):
        # basis form: 21 qubits; determinant form: 11 orbitals on 22 qubits
        n = 21 if form == "basis" else 22
        h = PauliSum(n, {PauliString.from_label(f"Z{n - 1}"): 1.0,
                         PauliString.from_label("X0"): 0.5})
        (tmp_path / "op.json").write_text(h.to_json())
        state = {"basis": 0}
        if form == "determinants":
            (tmp_path / "dets.json").write_text(json.dumps(
                {"norb": 11, "dets": [{"mask": "11", "coeff": 1.0}]}
            ))
            state = {"determinants": "dets.json", "threshold": 0.0}
        config = write_config(tmp_path, {
            "algorithm": "qcm4", "operator": "op.json", "state": state,
        })
        code = main(["qcm4", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "register width must be in 1..20" in capsys.readouterr().err


    @pytest.mark.parametrize("form", ["operator", "determinants"])
    def test_non_integer_register_width_exits_2(self, tmp_path, capsys, form):
        # int() would read 4.5 as 4 qubits and 2.5 as 2 orbitals
        h = PauliSum(4, {PauliString.from_label("Z3"): 1.0})
        op = json.loads(h.to_json())
        dets = {"norb": 2, "dets": [{"mask": "11", "coeff": 1.0}]}
        if form == "operator":
            op["n_qubits"] = 4.5
        else:
            dets["norb"] = 2.5
        (tmp_path / "op.json").write_text(json.dumps(op))
        (tmp_path / "dets.json").write_text(json.dumps(dets))
        config = write_config(tmp_path, {
            "algorithm": "qcm4", "operator": "op.json",
            "state": {"determinants": "dets.json", "threshold": 0.0},
        })
        code = main(["qcm4", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        path = tmp_path / ("op.json" if form == "operator" else "dets.json")
        assert str(path) in capsys.readouterr().err


class TestMemoryChecks:
    """A run that cannot afford its arrays exits 2 before allocating them."""

    @pytest.mark.parametrize("command", ["qcels", "recompile"])
    def test_unaffordable_n_points_exits_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        settings = {"n_points": 4096}
        extra = {"mode": "recompiled"} if command == "qcels" else {}
        if command == "recompile":
            settings.update(layers=1, max_iterations=1, restarts=1)
        config = h2_config(tmp_path, command, **{command: settings}, **extra)

        def no_scale(*args):
            raise AssertionError("the n_points check must come first")

        # 4,096 Hadamard-test rows of 2^5 amplitudes take 2,097,152 bytes
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 2**21 - 1)
        monkeypatch.setattr(cli, "scale", no_scale)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{command}.n_points: 4,096 time points" in err
        assert "2,097,152 bytes, more than the 2,097,151 bytes" in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("memory, code", [(2**20 - 1, 2), (2**21 - 1, 0)])
    def test_exact_qcels_charges_rows_of_2_to_the_n(
        self, tmp_path, capsys, monkeypatch, memory, code
    ):
        # exact mode evolves psi alone: 4,096 rows of 2^4 amplitudes take
        # 1,048,576 bytes, half of what the Hadamard-test rows would, so it
        # fits where recompiled mode is refused
        config = h2_config(tmp_path, "qcels", qcels={"n_points": 4096})
        monkeypatch.setattr(pauli, "_physical_memory", lambda: memory)
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert "qcels.n_points: 4,096 time points" in err
            assert "1,048,576 bytes, more than the 1,048,575 bytes" in err
            assert not (out / "results.json").exists()
        else:
            assert run_results(out)["results"]["n_points"] == 4096

    @pytest.mark.parametrize("command", ["qcels", "recompile", "qcm4"])
    def test_unaffordable_operator_exits_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # X on each of 10 qubits: one symmetry block of 1,024 rows for
        # scale, and a 4^10 commutation table for qcm4's grouping
        h = PauliSum(10, {PauliString(1 << q, 0): 0.1 * (q + 1) for q in range(10)})
        (tmp_path / "op.json").write_text(h.to_json())
        payload = {"algorithm": command, "operator": "op.json", "state": {"basis": 0}}
        if command == "recompile":
            payload["recompile"] = {"layers": 1, "max_iterations": 1, "restarts": 1}
        config = write_config(tmp_path, payload)
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 5 * 2**20)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        what = "the commutation table" if command == "qcm4" else "symmetry blocks"
        assert f"operator: {what}" in err and "bytes of physical memory" in err
        assert not (out / "results.json").exists()

    def test_unaffordable_moments_exit_2(self, tmp_path, capsys, monkeypatch):
        config = h2_config(tmp_path, "qcm4")

        def no_plan(*args):
            raise AssertionError("the moments' check must come first")

        # H2's first product, H·H, is checked before anything it needs exists
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10_000)
        monkeypatch.setattr(cli, "plan", no_plan)
        out = tmp_path / "run"
        assert main(["qcm4", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "operator: the product of 15 by 15 terms" in err
        assert "bytes of physical memory" in err
        assert not (out / "results.json").exists()

    def test_unaffordable_ingest_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10_000)
        out = tmp_path / "ingested"
        assert main(["ingest", str(H2_FCIDUMP), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(H2_FCIDUMP) in err and "product chains" in err
        assert "bytes of physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("recompile", "recompile"), ("qcels", "qcels.compile"),
    ])
    def test_unaffordable_compile_batch_exits_2(
        self, tmp_path, capsys, monkeypatch, command, section
    ):
        if command == "recompile":
            extra = {"recompile": {"restarts": 10**15, "n_points": 2}}
        else:
            extra = {"mode": "recompiled",
                     "qcels": {"n_points": 2, "compile": {"restarts": 10**15}}}
        config = h2_config(tmp_path, command, **extra)

        def no_compile(*args, **kwargs):
            raise AssertionError("the batch check must come first")

        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10**9)
        monkeypatch.setattr(cli, "hea_ansatz", no_compile)
        monkeypatch.setattr(cli, "compile_series", no_compile)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # H2 with its ancilla: a 5-qubit ansatz of 6 layers, 129 parameters
        assert f"{section}.restarts: 1,000,000,000,000,000 restarts of 129 parameters" in err
        assert "more than the 1,000,000,000 bytes" in err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("layers", [1, 3])
    def test_compile_batch_charges_the_built_ansatz(self, tmp_path, monkeypatch, layers):
        settings = {"layers": layers, "restarts": 2, "n_points": 3, "max_iterations": 1}
        config = h2_config(tmp_path, "recompile", recompile=settings)
        charged = []
        monkeypatch.setattr(cli, "check_memory", lambda n_bytes, what: charged.append(n_bytes))
        assert main(["recompile", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 0
        ansatz, _ = hea_ansatz(5, layers)
        assert batch_bytes(3, 5, ansatz.n_params, 2) in charged

    @pytest.mark.parametrize("command, settings, message", [
        # weighted allocation may give one of H2's 2 circuits every shot;
        # the same spc under uniform allocation fits
        ("qcm4", {"spc": 2 * 10**7, "qcm4": {"allocation": "weighted"}},
         "spc: 40,000,000 shots of a circuit"),
        ("qcm4", {"spc": 10**9}, "spc: 1,000,000,000 shots of a circuit"),
        ("qcm4", {"spc": 100, "qcm4": {"resamples": 10**7}},
         "qcm4.resamples: 10,000,000 resamples would take"),
    ])
    def test_unaffordable_shots_exit_2(
        self, tmp_path, capsys, monkeypatch, command, settings, message
    ):
        config = h2_config(tmp_path, command, mode="shots", **settings)

        def no_draw(*args, **kwargs):
            raise AssertionError("the shot checks must come first")

        # a machine with 1 GB: nothing of the refused size is allocated
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10**9)
        monkeypatch.setattr(cli, "acquire", no_draw)
        monkeypatch.setattr(cli, "estimate", no_draw)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "more than the 1,000,000,000 bytes" in err
        assert not (out / "results.json").exists()

    def test_qcels_shots_hold_no_per_shot_array(self, tmp_path, monkeypatch):
        # each time point and part draws one binomial count, so 10^9 shots
        # cost no more memory than 10 on a machine with 1 GB
        config = h2_config(tmp_path, "qcels", mode="shots", spc=10**9)
        monkeypatch.setattr(pauli, "_physical_memory", lambda: 10**9)
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out)]) == 0
        results = run_results(out)["results"]
        assert results["spc"] == 10**9
        assert results["energy"] == pytest.approx(-1.137270, abs=1e-4)

    @pytest.mark.parametrize("n_qubits, spc", [(4, 100_000), (14, 20_000)])
    def test_shot_estimate_covers_the_draw(self, n_qubits, spc):
        psi = StateVector(n_qubits, random_state(np.random.default_rng(5), n_qubits))
        tracemalloc.start()
        try:
            sample_z(psi, spc, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._shot_bytes(spc, n_qubits)

    def test_bootstrap_estimate_covers_the_resamples(self):
        h = jordan_wigner(parse_fcidump(H2_FCIDUMP.read_text()))
        mp = plan(build_moments(h))
        psi = StateVector(4, random_state(np.random.default_rng(0), 4))
        est = estimate(mp, psi, spc=10_000, seed=1, mode="shots")
        outcomes = max(len(r.outcomes) for r in est.records)
        assert outcomes == 16
        terms = max(len(c.terms) for c in mp.circuits)
        tracemalloc.start()
        try:
            bootstrap(est, 1000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._bootstrap_bytes(1000, outcomes, terms)


class TestNoDenseMatrix:
    def test_qcels_and_ingest_allocate_no_4n_array(self, tmp_path, monkeypatch):
        sizes = []

        def spy(allocate):
            def spied(shape, *args, **kwargs):
                sizes.append(math.prod(shape) if hasattr(shape, "__len__") else shape)
                return allocate(shape, *args, **kwargs)
            return spied

        def no_dense(self):
            raise AssertionError("to_dense reached")

        monkeypatch.setattr(PauliSum, "to_dense", no_dense)
        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, spy(getattr(np, name)))
        ingested = tmp_path / "ingested"
        assert main(["ingest", str(FIXTURES / "spin_polarized.fcidump"),
                     "--out", str(ingested), "--taper"]) == 0
        report = json.loads((ingested / "ingest_report.json").read_text())
        assert report["qubits"] == 8 and report["ground_energy"] is not None
        config = write_config(tmp_path, {
            "algorithm": "qcels",
            "operator": str(ingested / "operator.json"),
            "state": {"basis": 0b01010100},
        })
        assert main(["qcels", "--config", str(config), "--mode", "exact",
                     "--out", str(tmp_path / "run")]) == 0
        # the flat array of the 25 (N_alpha, N_beta) cells, C(8, 4)^2
        # entries, is the largest matrix
        assert 4900 in sizes
        assert max(sizes) < 4**8


class TestRecompileRun:
    def test_artifacts_and_determinism(self, tmp_path):
        config = write_config(tmp_path, {
            "algorithm": "recompile",
            "operator": str(TOY_3Q),
            "state": {"basis": 1},
            "recompile": {"n_points": 3, "layers": 1,
                          "max_iterations": 40, "restarts": 1},
        })
        argv = ["recompile", "--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        reference = (tmp_path / "r1" / "results.json").read_bytes()
        assert (tmp_path / "r2" / "results.json").read_bytes() == reference
        results = run_results(tmp_path / "r1")["results"]
        assert 0.0 < results["mean_fidelity"] <= 1.0
        assert results["min_fidelity"] <= results["max_fidelity"]
        compilation = json.loads(
            (tmp_path / "r1" / "series_compilation.json").read_text()
        )
        assert len(compilation["results"]) == 3


class TestCompileSettings:
    SETTINGS = {
        "layers": 2, "max_iterations": 7, "learning_rate": 0.2, "restarts": 2,
        "tolerance": 1e-9,
    }

    @pytest.mark.parametrize("command", ["recompile", "qcels"])
    def test_every_setting_reaches_the_optimizer(
        self, tmp_path, monkeypatch, command
    ):
        seen = {}

        def stop(targets, ansatz, config, layers=None):
            seen.update(n=len(targets), qubits=ansatz.n_qubits,
                        config=config, layers=layers)
            raise RuntimeError("stopped before optimizing")

        monkeypatch.setattr(cli, "compile_series", stop)
        payload = {
            "algorithm": command,
            "operator": str(TOY_3Q),
            "state": {"basis": 1},
            "seed": 4,
        }
        if command == "recompile":
            payload["recompile"] = dict(self.SETTINGS, n_points=3)
        else:
            payload["mode"] = "recompiled"
            payload["qcels"] = {"n_points": 3, "compile": self.SETTINGS}
        config = write_config(tmp_path, payload)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 1
        expected = {k: v for k, v in self.SETTINGS.items() if k != "layers"}
        assert seen == {
            "n": 3,
            "qubits": 4,
            "config": CompileConfig(seed=4, **expected),
            "layers": 2,
        }


class TestQcelsRecompiledRun:
    def test_inline_compilation_artifact(self, tmp_path):
        config = write_config(tmp_path, {
            "algorithm": "qcels",
            "operator": str(TOY_3Q),
            "state": {"basis": 1},
            "mode": "recompiled",
            "qcels": {
                "n_points": 3,
                "compile": {"layers": 1, "max_iterations": 40, "restarts": 1},
            },
        })
        out = tmp_path / "run"
        assert main(["qcels", "--config", str(config), "--out", str(out)]) == 0
        results = run_results(out)["results"]
        assert results["mode"] == "recompiled"
        assert results["mean_fidelity"] is not None
        assert results["two_qubit_depth"] > 0
        assert (out / "series_compilation.json").exists()


_OVERLAP_ROW = "0,0.0,1.0,0.0,0.0,0.0"


class TestReportObjective:
    @pytest.mark.parametrize("header, row, message", [
        pytest.param("# spc=none mode=exact", _OVERLAP_ROW, "header", id="no-tau"),
        pytest.param("# tau=inf spc=none mode=exact", _OVERLAP_ROW, "tau", id="inf-tau"),
        pytest.param("# tau=nan spc=none mode=exact", _OVERLAP_ROW, "tau", id="nan-tau"),
        pytest.param("# tau=0.0 spc=none mode=exact", _OVERLAP_ROW, "tau", id="zero-tau"),
        pytest.param("# tau=-0.5 spc=none mode=exact", _OVERLAP_ROW, "tau",
                     id="negative-tau"),
        pytest.param("# tau=0.5 spc=none mode=guess", _OVERLAP_ROW, "mode",
                     id="unknown-mode"),
        pytest.param("# tau=0.5 spc=none mode=exact", "0,0.0,1.0,0.0,0.0", "6 fields",
                     id="short-row"),
        pytest.param("# tau=0.5 spc=none mode=exact", "0,0.0,one,0.0,0.0,0.0", "float",
                     id="non-numeric"),
        pytest.param("# tau=0.5 spc=none mode=exact", "0,0.0,nan,0.0,0.0,0.0", "finite",
                     id="nan-field"),
    ])
    def test_bad_overlap_exits_2_naming_the_file(self, tmp_path, capsys, header, row,
                                                 message):
        run = tmp_path / "run"
        run.mkdir()
        path = run / "overlap.csv"
        path.write_text(f"{header}\nn,t,re,im,stderr_re,stderr_im\n{row}\n")
        assert main(["report", "--objective", str(run)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (run / "objective.csv").exists()

    def test_run_without_overlap_exits_2_naming_the_file(self, tmp_path, capsys):
        config = h2_config(tmp_path, "qcm4")
        run = tmp_path / "qcm4"
        assert main(["qcm4", "--config", str(config), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["report", "--objective", str(run)]) == 2
        assert str(run / "overlap.csv") in capsys.readouterr().err
        assert not (run / "objective.csv").exists()

    def test_objective_takes_no_out(self, tmp_path):
        # the curves go into the run directories, so --out would be ignored
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--objective", "--out", str(tmp_path / "rep"), str(tmp_path)])
        assert exit_info.value.code == 2


class TestReport:
    def run_pair(self, tmp_path):
        config = h2_config(tmp_path, "qcm4")
        exact_dir = tmp_path / "exact"
        shots_dir = tmp_path / "shots"
        assert main(["qcm4", "--config", str(config),
                     "--out", str(exact_dir)]) == 0
        assert main(["qcm4", "--config", str(config), "--out", str(shots_dir),
                     "--mode", "shots", "--spc", "100"]) == 0
        return exact_dir, shots_dir

    def test_empty_input_gives_header_only(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["report", "--out", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 2
        assert table[0].startswith("| run ")
        csv_rows = (out / "report.csv").read_text().splitlines()
        assert len(csv_rows) == 1

    def test_delta_equals_energy_difference(self, tmp_path, capsys):
        exact_dir, shots_dir = self.run_pair(tmp_path)
        capsys.readouterr()
        out = tmp_path / "rep"
        assert main(["report", str(exact_dir), str(shots_dir),
                     "--out", str(out)]) == 0
        exact_e = run_results(exact_dir)["results"]["energy"]
        shots_e = run_results(shots_dir)["results"]["energy"]
        rows = (out / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        exact_row = dict(zip(header, rows[1].split(",")))
        shots_row = dict(zip(header, rows[2].split(",")))
        assert float(exact_row["delta_vs_exact"]) == 0.0
        assert float(shots_row["delta_vs_exact"]) == shots_e - exact_e
        assert shots_row["spc"] == "100"
        assert exact_row["spc"] == ""

    def test_reference_is_the_exact_run_on_the_same_state(self, tmp_path, capsys):
        hf, other = {"basis": 0b0011}, {"basis": 0b0101}
        runs = {"ci_exact": ({}, []), "hf_exact": ({"state": hf}, []),
                "hf_shots": ({"state": hf}, ["--mode", "shots", "--spc", "100"]),
                "other_shots": ({"state": other}, ["--mode", "shots", "--spc", "100"])}
        for name, (extra, flags) in runs.items():
            config = h2_config(tmp_path, "qcm4", **extra)
            assert main(["qcm4", "--config", str(config), "--out",
                         str(tmp_path / name), *flags]) == 0
        capsys.readouterr()
        out = tmp_path / "rep"
        assert main(["report", *(str(tmp_path / name) for name in runs),
                     "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        delta = {row["run"]: row["delta_vs_exact"]
                 for row in (dict(zip(header, line.split(","))) for line in rows[1:])}
        energy = {name: run_results(tmp_path / name)["results"]["energy"] for name in runs}
        assert energy["ci_exact"] != energy["hf_exact"]
        assert float(delta["ci_exact"]) == float(delta["hf_exact"]) == 0.0
        assert float(delta["hf_shots"]) == energy["hf_shots"] - energy["hf_exact"]
        assert delta["other_shots"] == ""

    def test_regeneration_is_deterministic(self, tmp_path, capsys):
        exact_dir, shots_dir = self.run_pair(tmp_path)
        capsys.readouterr()
        assert main(["report", str(exact_dir), str(shots_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(exact_dir), str(shots_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_missing_results_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        rogue = tmp_path / "rogue"
        rogue.mkdir()
        # true, 1.0 and 2.0 compare equal to 1 and 2 but are not integer
        # versions; 0 and 3 bracket the versions 1 and 2 that it reads
        for version in (99, True, 1.0, 0, 3, 2.0):
            (rogue / "results.json").write_text(
                json.dumps({"schema_version": version, "results": {}})
            )
            assert main(["report", str(rogue)]) == 2
            assert "unsupported schema version" in capsys.readouterr().err

    def test_schema_1_and_2_runs_share_one_table(self, tmp_path, capsys):
        exact_dir, shots_dir = self.run_pair(tmp_path)
        # the shot run as version 1 wrote it: no filter block
        old = tmp_path / "old"
        old.mkdir()
        payload = run_results(shots_dir)
        assert payload["schema_version"] == 2
        payload["schema_version"] = 1
        del payload["results"]["filter"]
        (old / "results.json").write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "rep"
        assert main(["report", str(exact_dir), str(shots_dir), str(old),
                     "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        new, older = (dict(zip(header, row.split(","))) for row in rows[2:])
        assert (new.pop("run"), older.pop("run")) == ("shots", "old")
        assert older == new
        assert new["delta_vs_exact"] != ""

    def test_non_object_section_exits_2(self, tmp_path, capsys):
        rogue = tmp_path / "rogue"
        rogue.mkdir()
        for key in ("results", "config"):
            payload = {"schema_version": SCHEMA_VERSION, "results": {}, "config": {}}
            payload[key] = []
            (rogue / "results.json").write_text(json.dumps(payload))
            assert main(["report", str(rogue)]) == 2
            assert f"{key} must be an object" in capsys.readouterr().err
