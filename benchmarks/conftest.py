"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's artifacts (DESIGN.md, section 3
maps experiment ids E1-E12 to benches).  The interesting outputs are
*counts* -- dynamic memory references, graph sizes, spill-block frequencies
-- which each bench prints as a table and also appends to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote them.
pytest-benchmark additionally times the allocator runs themselves.
"""

import os
from typing import Iterable, List

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def show(name: str, lines: Iterable[str]) -> str:
    """Print a result table; returns its text."""
    text = "\n".join(lines)
    print()
    print(f"=== {name} ===")
    print(text)
    return text


def report(name: str, lines: Iterable[str]) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    text = show(name, lines)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def fmt_row(cells: List[object], widths: List[int]) -> str:
    out = []
    for cell, width in zip(cells, widths):
        text = f"{cell:.2f}" if isinstance(cell, float) else str(cell)
        out.append(text.rjust(width))
    return "  ".join(out)


@pytest.fixture(scope="session")
def allocator_suite():
    """The comparison set used across benches."""
    from repro.allocators import (
        BriggsAllocator,
        ChaitinAllocator,
        LocalAllocator,
        NaiveMemoryAllocator,
    )
    from repro.core import HierarchicalAllocator

    return {
        "hierarchical": HierarchicalAllocator,
        "chaitin": ChaitinAllocator,
        "briggs": BriggsAllocator,
        "local": LocalAllocator,
        "naive": NaiveMemoryAllocator,
    }
