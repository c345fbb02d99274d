"""Executable-documentation gates, run as part of tier 1.

Mirrors the CI docs job: the generated walkthrough must match a fresh
regeneration, documented code blocks must run, and PAPER_MAP anchors must
resolve.  The generator scripts run in fresh subprocesses because tile
ids come from a process-global counter -- a same-process regeneration
would renumber every tile.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_walkthrough_matches_regeneration():
    proc = run_script("docs/gen_walkthrough.py", "--check")
    assert proc.returncode == 0, (
        "docs/WALKTHROUGH.md has drifted from the allocator's behaviour; "
        "regenerate with `PYTHONPATH=src python docs/gen_walkthrough.py`.\n"
        + proc.stdout + proc.stderr
    )


def test_documented_code_blocks_execute():
    proc = run_script("docs/check_docs.py", "--only", "exec")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "walkthrough assertions passed" in proc.stdout


def test_paper_map_anchors_resolve():
    proc = run_script("docs/check_docs.py", "--only", "anchors")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_walkthrough_is_marked_generated():
    path = os.path.join(REPO_ROOT, "docs", "WALKTHROUGH.md")
    with open(path, encoding="utf-8") as fh:
        head = fh.read(300)
    assert "DO NOT EDIT BY HAND" in head


def _check_docs_module():
    import importlib.util

    path = os.path.join(REPO_ROOT, "docs", "check_docs.py")
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_named_anchor_must_land_on_the_definition():
    defined = _check_docs_module().definitions("src/repro/perf/arena.py")
    assert "build_arena" in defined
    assert "FunctionArena" in defined
    assert "FunctionArena.block_digest" in defined
    assert "block_digest" not in defined  # a method is named dotted
    assert "no_such_definition" not in defined


def test_named_anchor_allows_one_decorator_line():
    """A decorated definition resolves by name like any other."""
    path = "src/repro/perf/arena.py"
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = next(
        i + 1 for i, text in enumerate(lines)
        if text.strip() == "def retired(self) -> bool:"
    )
    assert lines[line - 2].strip() == "@property"
    assert "FunctionArena.retired" in _check_docs_module().definitions(path)
