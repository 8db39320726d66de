"""Count the package's lines of code, one line per module and a total.

Run from the root of a checkout:

    python3 tests/line_count.py

A line counts when it is neither blank nor a comment (its first non-space
character is not ``#``); docstrings count.  Each module of src/fairbalance
is printed with its count, in name order, then the total, so two checkouts
compare by running the script in each.  Standard library only; pytest does
not collect this file.
"""

from __future__ import annotations

import pathlib
import sys


def code_lines(path: pathlib.Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main(argv: list) -> int:
    if argv:
        print("usage: python3 tests/line_count.py", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(pathlib.Path("src", "fairbalance").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16s}{count:6d}")
    print(f"{'total':16s}{total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
