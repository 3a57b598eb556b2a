"""``scripts/src_lines.py`` puts every source line in exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# Line kinds, in order: doc doc blank code blank comment code doc code code
# code code blank blank code doc doc doc blank code comment code code.
SOURCE = '''\
"""Module docstring
spanning two lines."""

import os  # a trailing comment leaves the line code

# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is not a docstring,

with a blank line"""
    return x  # code


class C:
    """Class

    docstring with a blank line."""

    def g(self):
        # an indented comment
        return (1 +
                2)
'''


def test_known_counts():
    counts = src_lines.count_lines(SOURCE)
    assert dict(counts) == {"code": 10, "docstring": 6, "comment": 2, "blank": 5}


def test_every_line_of_the_tree_is_counted_once():
    files = sorted((ROOT / "src").rglob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert sum(src_lines.count_tree().values()) == lines
