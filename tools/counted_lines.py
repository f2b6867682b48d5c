"""Print the counted lines of the semrelay package: lines that hold code,
leaving out blank lines, comments and docstrings.

    python3 tools/counted_lines.py [DIR]

DIR defaults to the repository's src/semrelay. The count
comes from the tokenizer: a line counts when a token other than a comment,
a line break, an indent or a docstring starts on it or spans it. A
docstring is a string that stands as a statement of its own. Prints one
line per file and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
            tokenize.ENDMARKER}
# Tokens after which a string begins a statement of its own.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def counted_lines(path: Path) -> int:
    """The number of counted lines of one Python source file."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type != tokenize.COMMENT]
    lines = set()
    before = tokenize.ENCODING  # the type of the last token that is not skipped
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.type in _SKIPPED:
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                before = tok.type
            continue
        docstring = (tok.type == tokenize.STRING and before in _STATEMENT_START
                     and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        before = tok.type
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "semrelay"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"error: no Python files in {root}", file=sys.stderr)
        return 2
    total = 0
    for path in files:
        n = counted_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
