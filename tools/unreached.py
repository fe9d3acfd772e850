"""Lists the public API that no run path, demo or tool references.

A public name is an ``__all__`` entry of a ``gsee`` module, or a method
without a leading underscore of a class in ``__all__``.  It counts as
reached when a name or attribute of that spelling is read anywhere under
``src/``, ``demos/`` or ``tools/`` outside its own definition; imports
alone do not count, and tests and the benchmark are not searched.  The
match is by spelling only, so a name shared with another object can hide
an unreached one, never the reverse.

Names in ``KNOWN`` are unreached on purpose, each for the reason given
there (ROADMAP.md tracks them).

Usage: python3 tools/unreached.py

Prints a Markdown list of the unreached names with their reasons.  Exits
1 when a name outside ``KNOWN`` is unreached or a name in ``KNOWN`` is
reached, so that the table and the code agree; otherwise exits 0.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "demos", "tools")
KNOWN = {
    "circuits.trotter_step": "ROADMAP item 18: a run reaches it, or it retires",
    "pauli.PauliSum.one_norm": "tests read it, and ROADMAP item 20 may call it",
}


def public_definitions(path: pathlib.Path, tree: ast.Module) -> list[tuple]:
    """``(name, path, first line, last line)`` of each public definition."""
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        name = getattr(node, "name", None)
        if name not in exported:
            continue
        exported.discard(name)
        found.append((name, path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{name}.{item.name}", path, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    # constants and re-exports: their definition is a single line or none
    found += [(name, path, 0, 0) for name in exported]
    return found


def main() -> int:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    reads: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    package = ROOT / "src" / "gsee"
    unreached = [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name, _, first, last in public_definitions(path, trees[path])
        if not any(
            where != path or not first <= line <= last
            for where, line in reads.get(name.rsplit(".", 1)[-1], [])
        )
    ]
    print(f"### Public names that no code under {', '.join(SEARCHED)} reads")
    print("\n".join(
        f"- `{name}`: {KNOWN.get(name, 'not in KNOWN; reach it or remove it')}"
        for name in unreached
    ) or "none")
    reached = sorted(KNOWN.keys() - set(unreached))
    if reached:
        print("\nReached now, so no longer expected unreached (drop from KNOWN): "
              + ", ".join(f"`{name}`" for name in reached))
    return int(bool(reached) or not set(unreached) <= KNOWN.keys())


if __name__ == "__main__":
    sys.exit(main())
