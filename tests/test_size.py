"""tools/size.py: which lines of a source text count as code."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import size  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


def f(a,
      b):
    """A function docstring."""
    # a comment line
    text = """a string
that is not a docstring"""
    return (a +
            b)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, both lines of the def and of the return, both of the string
    assert size.code_lines(SOURCE) == 7
    assert size.counts({"m": SOURCE}) == {"m": (14, 7)}
