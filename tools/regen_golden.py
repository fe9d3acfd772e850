"""Rewrites the golden artifact set that tests/test_golden.py checks.

Runs the golden run list of tests/test_golden.py (ingest, qcels, qcm4,
recompile and report on the H2 fixture with its CI state, qcm4 and qcels
on its Hartree-Fock determinant, and qcm4 exact with full and qubitwise
grouping on the 8-qubit spin_polarized model) in a temporary directory
and copies every artifact into tests/golden/.

Usage: python3 tools/regen_golden.py [--out DIR]

--out writes the set to DIR instead.  Running it at two checkouts on one
machine and comparing the outputs with ``diff -r`` checks the artifacts
byte for byte.  qcels runs write no ``objective.csv``; to compare that
curve too, run ``gsee report --objective`` on the qcels run directories of
each set first.
"""

import argparse
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, default=test_golden.GOLDEN)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        files = test_golden.artifacts(test_golden.produce(pathlib.Path(tmp)))
    # clear only the run directories this list owns
    for run in test_golden.RUN_DIRS:
        shutil.rmtree(args.out / run, ignore_errors=True)
    for name, text in files.items():
        path = args.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print(f"wrote {len(files)} files to {args.out}")


if __name__ == "__main__":
    main()
