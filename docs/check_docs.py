#!/usr/bin/env python
"""Executable-documentation gate.

Three checks, all run by the CI docs job (and by ``tests/test_docs.py``):

1. every fenced ``python`` code block in ``README.md``,
   ``docs/WALKTHROUGH.md`` and ``docs/SERVICE.md`` executes without
   raising (with ``src/`` on ``sys.path``), so documented snippets
   cannot rot — the SERVICE.md blocks start a real allocation service
   on a loopback socket and drive it through the real client;
2. every backticked ``path`` anchor in ``docs/PAPER_MAP.md`` points at
   an existing file, and carries no line number; an anchor written
   ``path`` (``name``) must name a definition in that file, found with
   :mod:`ast`: a module-level ``def``/``class`` or assignment, or, dotted
   (``Class.attr``), a method, nested class or class-level assignment;
3. the pytest-style ``path::name`` anchors in PAPER_MAP resolve their
   file part the same way.

Run from anywhere::

    python docs/check_docs.py            # all checks
    python docs/check_docs.py --only anchors
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import sys
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

EXECUTABLE_DOCS = [
    "README.md",
    os.path.join("docs", "WALKTHROUGH.md"),
    os.path.join("docs", "SERVICE.md"),
]
ANCHOR_DOC = os.path.join("docs", "PAPER_MAP.md")

#: `path` inside backticks; the path must contain a slash or be a bare
#: known-extension file.  ``::`` (pytest node ids) is left to the path
#: part, so `tests/test_x.py::TestY` checks `tests/test_x.py`.  A
#: ``:line`` suffix is matched only to be reported: lines move, names
#: stay.
ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_.\-/]+\.(?:py|md|toml|yml|yaml|ir|ml|txt))"
    r"(?::(?P<line>\d+))?(?:::[A-Za-z0-9_.:]+)?`"
)

#: `path` (`name` -- an anchor that names the definition it targets.
NAMED_ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_.\-/]+\.py)` \(`(?P<name>[A-Za-z0-9_.]+)`"
)


def _read(relpath: str) -> str:
    with io.open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
        return fh.read()


def python_blocks(markdown: str):
    """Yield (first_line_number, source) for each ```python fence."""
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```python":
            start = i + 1
            j = start
            while j < len(lines) and lines[j].strip() != "```":
                j += 1
            yield start + 1, "\n".join(lines[start:j])
            i = j + 1
        else:
            i += 1


def check_executable(relpath: str) -> list:
    """Run every python block of one document; return error strings."""
    errors = []
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for lineno, source in python_blocks(_read(relpath)):
        namespace = {"__name__": "__doccheck__"}
        try:
            exec(compile(source, f"{relpath}:{lineno}", "exec"), namespace)
        except Exception:
            errors.append(
                f"{relpath}:{lineno}: python block raised:\n"
                + traceback.format_exc(limit=5)
            )
    return errors


def definitions(path: str) -> set:
    """The names *path* defines: module-level ``def``/``class`` and
    assignment targets, and, dotted, each class's methods, nested
    classes and class-level assignments."""
    tree = ast.parse(_read(path))
    names = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names.update(
                    prefix + target.id for target in targets
                    if isinstance(target, ast.Name)
                )

    visit(tree.body, "")
    return names


def check_anchors(relpath: str) -> list:
    """Validate every `path` and `path` (`name`) anchor in one
    document."""
    errors = []
    found = 0
    text = _read(relpath)
    defined = {}
    for match in NAMED_ANCHOR_RE.finditer(text):
        path, name = match.group("path"), match.group("name")
        if not os.path.isfile(os.path.join(REPO_ROOT, path)):
            continue  # reported below
        if path not in defined:
            defined[path] = definitions(path)
        if name not in defined[path]:
            errors.append(
                f"{relpath}: anchor `{path}` (`{name}`) -> {path} defines "
                f"no `{name}`"
            )
    for match in ANCHOR_RE.finditer(text):
        path = match.group("path")
        found += 1
        if match.group("line") is not None:
            errors.append(
                f"{relpath}: anchor `{match.group(0)}` carries a line "
                "number; anchor by name: `path` (`name`)"
            )
        if not os.path.isfile(os.path.join(REPO_ROOT, path)):
            errors.append(f"{relpath}: anchor `{match.group(0)}` -> "
                          f"no such file {path}")
    if found == 0:
        errors.append(f"{relpath}: no path anchors found (regex drift?)")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=["exec", "anchors"],
        help="run a single check instead of all",
    )
    args = parser.parse_args(argv)

    errors = []
    if args.only in (None, "exec"):
        for doc in EXECUTABLE_DOCS:
            errors += check_executable(doc)
    if args.only in (None, "anchors"):
        errors += check_anchors(ANCHOR_DOC)

    for err in errors:
        print(err)
    if errors:
        print(f"FAILED: {len(errors)} docs problem(s)")
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
