"""The artifact workflow: ingest, run, and summarize from the CLI.

Drives the ``gsee`` command line in-process: FCIDUMP ingestion, an
exact-mode and a shot-mode moment run from one config file, and the
summary report over both artifacts.  results.json is the one record of
a run: the resolved config next to the results, here with the filter
block of qcm4.filter.  A shot run adds its data, bootstrap.csv, and
identical configs reproduce identical bytes.
"""

import json
import pathlib
import tempfile

from gsee.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee" / "fixtures"

workdir = pathlib.Path(tempfile.mkdtemp(prefix="gsee_demo_"))
print(f"working in {workdir}\n")

print("$ gsee ingest h2_eq.fcidump --out ingested --taper")
main(["ingest", str(FIXTURES / "h2_eq.fcidump"),
      "--out", str(workdir / "ingested"), "--taper"])

config = workdir / "qcm4.json"
config.write_text(json.dumps({
    "algorithm": "qcm4",
    "operator": str(workdir / "ingested" / "operator.json"),
    "state": {"determinants": str(FIXTURES / "h2_eq_ci.json")},
    "seed": 2,
    "qcm4": {"filter": True},
}, indent=1))

print("\n$ gsee qcm4 --config qcm4.json --out run_exact")
main(["qcm4", "--config", str(config), "--out", str(workdir / "run_exact")])

print("\n$ gsee qcm4 --config qcm4.json --out run_shots --mode shots --spc 10000")
main(["qcm4", "--config", str(config), "--out", str(workdir / "run_shots"),
      "--mode", "shots", "--spc", "10000"])

print("\n$ gsee report run_exact run_shots --out report")
main(["report", str(workdir / "run_exact"), str(workdir / "run_shots"),
      "--out", str(workdir / "report")])

results = json.loads((workdir / "run_shots" / "results.json").read_text())
bs, kept = results["results"]["bootstrap"], results["results"]["filter"]
print(f"\nfilter: {kept['evaluated']} strings evaluated, {kept['dropped']} dropped")
print(f"shot-mode bootstrap: mean {bs['mean']:.8f} Ha, "
      f"std {bs['std'] * 1e3:.3f} mHa over {bs['resamples']} resamples")
print(f"artifacts kept under {workdir}")
