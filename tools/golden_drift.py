"""Tabulates how far the numbers moved between two golden artifact sets.

Usage: python3 tools/golden_drift.py BASE HEAD

BASE and HEAD are directories written by ``tools/regen_golden.py --out``,
for example at a parent commit and at its change.  Every file is split into fields as tests/test_golden.py splits
it.  For each file whose bytes differ, one row gives the number of float
fields that changed, their largest relative move |head - base| /
max(|head|, |base|) (the measure the golden test bounds by 1e-12), and
the number of other fields that changed.  A file whose lines or fields
do not pair up, or that exists on one side only, is named as such.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import _text_fields  # noqa: E402


def drift(base: str, head: str) -> str:
    """One table row for a pair of file texts that differ."""
    old, new = _text_fields(base), _text_fields(head)
    if [len(line) for line in old] != [len(line) for line in new]:
        return "layout differs"
    floats, largest, other = 0, 0.0, 0
    pairs = zip((f for line in old for f in line), (f for line in new for f in line))
    for a, b in pairs:
        if a == b and type(a) is type(b):
            continue
        if type(a) is float and type(b) is float:
            floats += 1
            largest = max(largest, abs(b - a) / max(abs(a), abs(b)))
        else:
            other += 1
    return f"{floats} floats, largest relative move {largest:.3g}, {other} other fields"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("head", type=pathlib.Path)
    args = parser.parse_args()
    names = sorted(
        {p.relative_to(d).as_posix() for d in (args.base, args.head)
         for p in d.rglob("*") if p.is_file()}
    )
    rows = []
    for name in names:
        base, head = args.base / name, args.head / name
        if not base.is_file() or not head.is_file():
            rows.append((name, "only in " + ("head" if head.is_file() else "base")))
        elif base.read_bytes() != head.read_bytes():
            rows.append((name, drift(base.read_text(), head.read_text())))
    width = max((len(name) for name, _ in rows), default=0)
    for name, row in rows:
        print(f"{name:<{width}}  {row}")
    print(f"{len(rows)} of {len(names)} files differ")


if __name__ == "__main__":
    main()
