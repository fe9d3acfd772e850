"""Counts the lines and code lines of each src/gsee module.

Code lines exclude docstrings, comments and blank lines.  A line counts
when a token other than a comment, a line break or an indentation change
starts on it, ends on it or spans it, unless it belongs to a docstring:
a string that is the first statement of a module, class or function.
So each continuation line of a statement counts, and so does each line
of a multi-line string that is not a docstring.

Usage: python3 tools/size.py [--base REV]

Prints a Markdown table with one row per module and a total row.  --base
adds the counts at the git revision REV, read with ``git show``, so
that the table shows which module a change shrank or grew.  It gates
nothing.
"""

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = "src/gsee"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    rows: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            rows.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            rows.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(rows)


def counts(sources: dict[str, str]) -> dict[str, tuple[int, int]]:
    """``(lines, code lines)`` per module name."""
    return {name: (len(text.splitlines()), code_lines(text))
            for name, text in sources.items()}


def _git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def sources_at(rev: str | None) -> dict[str, str]:
    """Module name to source text, in the working tree or at ``rev``."""
    if rev is None:
        paths = sorted((ROOT / PACKAGE).glob("*.py"))
        return {path.stem: path.read_text() for path in paths}
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {pathlib.Path(name).stem: _git("show", f"{rev}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def table(head: dict, base: dict | None, rev: str | None) -> list[str]:
    """Markdown rows: each module, then the total; a module missing on one
    side leaves that side's cells empty."""
    columns = ["module", "lines", "code lines"]
    sides = [head]
    if base is not None:
        columns += [f"lines at {rev}", f"code lines at {rev}"]
        sides.append(base)
    for side in sides:
        side["total"] = tuple(sum(pair[k] for pair in side.values()) for k in (0, 1))
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for name in sorted(set().union(*sides) - {"total"}) + ["total"]:
        cells = [name if name == "total" else f"`{name}`"]
        for side in sides:
            pair = side.get(name)
            cells += ["", ""] if pair is None else [f"{pair[0]:,}", f"{pair[1]:,}"]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", default=None)
    args = parser.parse_args()
    head = counts(sources_at(None))
    base = None if args.base is None else counts(sources_at(args.base))
    print("\n".join(table(head, base, args.base)))


if __name__ == "__main__":
    main()
