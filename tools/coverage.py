"""List the statements under ``src/`` that no tier-1 test runs.

Run from the repository root on Python 3.12 or later::

    PYTHONPATH=src python tools/coverage.py [pytest args]

It runs tier-1 in this process with ``PATROLSIM_WORKERS=1``, so ``verify``
and ``sweep`` run their jobs here, under a ``sys.monitoring`` line
collector, and prints each statement that never ran as ``file:line:
text``.  A statement is any but a definition, an import or a docstring;
it ran when a line of it (of its header, for a compound statement) did.
Work done in forked children is not seen.

``tools/coverage_allow.json`` lists the statements that stay unrun, each
keyed by its file and the text of its first line, with a reason; a key
listed k times allows k such statements.  The exit status is 1 when the
tests fail, when a statement not on the list went unrun, or when a listed
statement ran, and 0 otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "patrolsim"
ALLOW = ROOT / "tools" / "coverage_allow.json"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom)


def statements(source: str) -> list[tuple[int, range]]:
    """Each counted statement of ``source`` as ``(first line, lines that
    show it ran)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring, or a bare string
        # a compound statement's header ends where its first body begins
        end = min((child.lineno for child in ast.iter_child_nodes(node)
                   if isinstance(child, (ast.stmt, ast.excepthandler))),
                  default=node.end_lineno + 1)
        found.append((node.lineno, range(node.lineno,
                                         max(end, node.lineno + 1))))
    return found


def collect(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 with ``args`` under the line collector: pytest's exit
    status and the ``(file, line)`` pairs run."""
    import pytest

    monitoring, ran = sys.monitoring, set()
    tool = monitoring.COVERAGE_ID

    def line(code, number):
        ran.add((code.co_filename, number))
        return monitoring.DISABLE  # one event per line is enough

    monitoring.use_tool_id(tool, "patrolsim-coverage")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", *args])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return int(status), ran


def main(args: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("coverage.py needs sys.monitoring (Python 3.12 or later)",
              file=sys.stderr)
        return 2
    os.environ["PATROLSIM_WORKERS"] = "1"
    os.chdir(ROOT)
    status, ran = collect(args)
    lines: dict[Path, set[int]] = {}
    for filename, number in ran:
        lines.setdefault(Path(filename).resolve(), set()).add(number)
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for first, span in sorted(statements(source)):
            if lines.get(path, set()).isdisjoint(span):
                unrun.append((path.name, first, text[first - 1].strip()))
    for name, first, line in unrun:
        print(f"src/patrolsim/{name}:{first}: {line}")
    allowed = Counter((e["file"], e["statement"])
                      for e in json.loads(ALLOW.read_text()))
    found = Counter((name, line) for name, _, line in unrun)
    unlisted, stale = found - allowed, allowed - found
    for name, line in sorted(unlisted.elements()):
        print(f"unrun and not in {ALLOW.name}: {name}: {line}")
    for name, line in sorted(stale.elements()):
        print(f"in {ALLOW.name} but run: {name}: {line}")
    print(f"{len(unrun)} statements unrun, {sum(unlisted.values())} not "
          f"listed, {sum(stale.values())} listed but run; pytest exit "
          f"{status}")
    return int(status != 0 or bool(unlisted) or bool(stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
