#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of ``src/``.

Counts the Python files under ``src/`` at a git revision (read with
``git show``) and in the working tree, and prints both counts and the
change in each kind of line:

    python scripts/src_lines.py          # HEAD against the working tree
    python scripts/src_lines.py 1a2b3c4  # that commit against the working tree

A line spanned by a module, class or function docstring (the nodes whose
text ``ast.get_docstring`` returns) is a docstring line.  Any other line
that a token other than a comment starts on or runs through is a code
line, so a line with code and a trailing comment is code.  A line whose
first token is a comment is a comment line, and every other line is
blank.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")

# Tokens that mark no line as code: comments, line ends and indentation.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str) -> Counter:
    """The number of code, docstring, comment and blank lines of ``source``."""
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = Counter(dict.fromkeys(KINDS, 0))
    for line in range(1, len(io.StringIO(source).readlines()) + 1):
        if line in docstring:
            counts["docstring"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def count_revision(rev: str) -> Counter:
    """The line counts of ``src/`` at git revision ``rev``."""
    total = Counter(dict.fromkeys(KINDS, 0))
    for path in _git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines():
        if path.endswith(".py"):
            total.update(count_lines(_git("show", f"{rev}:{path}")))
    return total


def count_tree() -> Counter:
    """The line counts of ``src/`` in the working tree."""
    total = Counter(dict.fromkeys(KINDS, 0))
    for path in sorted((ROOT / "src").rglob("*.py")):
        total.update(count_lines(path.read_text(encoding="utf-8")))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default: HEAD)")
    args = parser.parse_args(argv)
    old, new = count_revision(args.rev), count_tree()
    print(f"{'lines':<10} {args.rev:>12} {'working tree':>12} {'change':>8}")
    for kind in (*KINDS, "total"):
        a = sum(old.values()) if kind == "total" else old[kind]
        b = sum(new.values()) if kind == "total" else new[kind]
        print(f"{kind:<10} {a:>12} {b:>12} {b - a:>+8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
