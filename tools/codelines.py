"""Count the code lines of each `src/stratgrid` module and of the package.

    python3 tools/codelines.py            # the modules under src/stratgrid
    python3 tools/codelines.py FILE ...   # the given files

A code line is a line that holds part of a code token, read with `tokenize`:
comments, blank lines and docstrings count for nothing.  A docstring is a
string statement on its own: the first statement of a module, class or
function, or any other bare string.  A string spanning several lines, such
as a multi-line help text, counts each of its lines.

Stdlib only; tier-1 does not collect it.
"""
from __future__ import annotations

import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "stratgrid")
# tokens that hold no code
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
# tokens that open or close a statement
_STATEMENT_EDGE = {
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: str) -> int:
    """The number of lines of `path` that hold part of a code token."""
    with open(path, "rb") as fh:
        # NL and comments never change where a statement starts or ends
        tokens = [
            t
            for t in tokenize.tokenize(fh.readline)
            if t.type not in (tokenize.NL, tokenize.COMMENT)
        ]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in _STATEMENT_EDGE
            and tokens[i + 1].type in _STATEMENT_EDGE
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = argv or sorted(
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.relpath(path, ROOT)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
