#!/usr/bin/env python
"""Executable-documentation gate.

Three checks, all run by the CI docs job (and by ``tests/test_docs.py``):

1. every fenced ``python`` code block in ``README.md``,
   ``docs/WALKTHROUGH.md`` and ``docs/SERVICE.md`` executes without
   raising (with ``src/`` on ``sys.path``), so documented snippets
   cannot rot — the SERVICE.md blocks start a real allocation service
   on a loopback socket and drive it through the real client;
2. every backticked ``path`` / ``path:line`` anchor in
   ``docs/PAPER_MAP.md`` points at an existing file (and, when a line
   number is given, at an existing line of it); an anchor written
   ``path:line`` (``name``) must land on the definition of ``name``
   (``def``/``class``, or an assignment for constants and fields; for a
   dotted ``Class.attr`` the last part), allowing one decorator line
   above it;
3. the pytest-style ``path::name`` anchors in PAPER_MAP resolve their
   file part the same way.

Run from anywhere::

    python docs/check_docs.py            # all checks
    python docs/check_docs.py --only anchors
"""

from __future__ import annotations

import argparse
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

#: `path` or `path:line` inside backticks; the path must contain a slash
#: or be a bare known-extension file.  ``::`` (pytest node ids) is left
#: to the path part, so `tests/test_x.py::TestY` checks `tests/test_x.py`.
ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_.\-/]+\.(?:py|md|toml|yml|yaml|ir|ml|txt))"
    r"(?::(?P<line>\d+))?(?:::[A-Za-z0-9_.:]+)?`"
)

#: `path:line` (`name` -- an anchor that names the definition it targets.
NAMED_ANCHOR_RE = re.compile(
    r"`(?P<path>[A-Za-z0-9_.\-/]+\.py):(?P<line>\d+)` \(`(?P<name>[A-Za-z0-9_.]+)`"
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


def defines(source_line: str, name: str) -> bool:
    """Whether *source_line* defines *name*: a ``def``/``class``
    statement or an (annotated) assignment of it."""
    name = re.escape(name.rsplit(".", 1)[-1])
    return re.match(
        rf"\s*(?:(?:async\s+)?def|class)\s+{name}\b|\s*{name}\s*[:=]",
        source_line,
    ) is not None


def check_named_anchor(path: str, line: int, name: str) -> bool:
    """Whether line *line* of *path* is the definition of *name*, or a
    decorator line directly above it."""
    with io.open(os.path.join(REPO_ROOT, path), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not 1 <= line <= len(lines):
        return False
    if defines(lines[line - 1], name):
        return True
    return (
        lines[line - 1].lstrip().startswith("@")
        and line < len(lines)
        and defines(lines[line], name)
    )


def check_anchors(relpath: str) -> list:
    """Validate every `path[:line]` anchor in one document."""
    errors = []
    found = 0
    text = _read(relpath)
    for match in NAMED_ANCHOR_RE.finditer(text):
        path, line, name = (
            match.group("path"), int(match.group("line")), match.group("name")
        )
        if os.path.isfile(os.path.join(REPO_ROOT, path)) and not (
            check_named_anchor(path, line, name)
        ):
            errors.append(
                f"{relpath}: anchor `{path}:{line}` does not land on the "
                f"definition of `{name}`"
            )
    for match in ANCHOR_RE.finditer(text):
        path, line = match.group("path"), match.group("line")
        found += 1
        full = os.path.join(REPO_ROOT, path)
        if not os.path.isfile(full):
            errors.append(f"{relpath}: anchor `{match.group(0)}` -> "
                          f"no such file {path}")
            continue
        if line is not None:
            with io.open(full, encoding="utf-8") as fh:
                count = sum(1 for _ in fh)
            if int(line) > count:
                errors.append(
                    f"{relpath}: anchor `{match.group(0)}` -> {path} has "
                    f"only {count} lines"
                )
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
