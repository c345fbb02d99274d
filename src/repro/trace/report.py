"""Render a traced allocation as a human-readable per-tile decision report.

Consumes the event stream of one allocation (a
:class:`~repro.trace.sinks.MemorySink`'s ``events``) and produces
GitHub-flavored markdown -- readable as plain text from the ``trace`` CLI
subcommand and embedded verbatim by ``docs/gen_walkthrough.py``, so the
CLI, the tests and the generated walkthrough all describe a run with the
same renderer.

The report is deterministic for deterministic event streams: tiles are
ordered by id and every table row is sorted, so two runs of the same
program produce byte-identical reports (the docs drift check relies on
this).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.events import (
    BOUNDARY_ACTIONS,
    BoundaryAction,
    PreferenceApplied,
    PseudoBound,
    SpillDecision,
    StageTiming,
    TileColored,
)

#: Mirrors :data:`repro.core.summary.MEM` (kept literal here so the trace
#: layer does not import the allocator it observes).
MEM = "<mem>"


def fmt_num(x: float) -> str:
    """Compact, locale-free float formatting ('30', '2.5', '-3')."""
    if x == float("inf"):
        return "inf"
    out = f"{x:g}"
    return "0" if out == "-0" else out


def _loc(loc: Optional[str]) -> str:
    return "MEM" if loc in (None, MEM) else str(loc)


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def render_report(
    events: Sequence[object],
    counters: Optional[Dict[str, int]] = None,
    tree_text: Optional[str] = None,
    title: str = "Allocation trace report",
) -> str:
    """The full markdown report for one traced allocation."""
    colored: Dict[Tuple[int, str], TileColored] = {}
    spills: Dict[int, List[SpillDecision]] = defaultdict(list)
    prefs: Dict[int, List[PreferenceApplied]] = defaultdict(list)
    bindings: Dict[int, List[PseudoBound]] = defaultdict(list)
    boundary: List[BoundaryAction] = []
    for event in events:
        if isinstance(event, TileColored):
            colored[(event.tile_id, event.phase)] = event
        elif isinstance(event, SpillDecision):
            spills[event.tile_id].append(event)
        elif isinstance(event, PreferenceApplied):
            prefs[event.tile_id].append(event)
        elif isinstance(event, PseudoBound):
            bindings[event.tile_id].append(event)
        elif isinstance(event, BoundaryAction):
            boundary.append(event)

    lines: List[str] = [f"# {title}", ""]
    if tree_text:
        lines += ["## Tile tree", "", "```", tree_text.rstrip(), "```", ""]

    tile_ids = sorted({tid for tid, _ in colored})
    for tid in tile_ids:
        lines += _tile_section(
            tid,
            colored.get((tid, "phase1")),
            colored.get((tid, "phase2")),
            spills.get(tid, []),
            prefs.get(tid, []),
            bindings.get(tid, []),
        )

    lines += _boundary_section(boundary)

    if counters:
        lines += ["## Counters", ""]
        lines += _table(
            ["counter", "value"],
            [[name, str(counters[name])] for name in sorted(counters)],
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _tile_section(
    tid: int,
    tc1: Optional[TileColored],
    tc2: Optional[TileColored],
    spills: List[SpillDecision],
    prefs: List[PreferenceApplied],
    bindings: List[PseudoBound],
) -> List[str]:
    head = tc1 or tc2
    assert head is not None
    blocks = ", ".join(head.blocks) if head.blocks else "(no own blocks)"
    lines = [f"## Tile #{tid} [{head.kind}] — blocks: {blocks}", ""]
    phases = []
    if tc1:
        phases.append(f"phase 1: {tc1.rounds} round(s), "
                      f"{len(tc1.used_colors)} color(s)")
    if tc2:
        phases.append(f"phase 2: {tc2.rounds} round(s)")
    lines += ["; ".join(phases), ""]

    candidates = dict(head.candidates)
    if tc2:
        candidates.update(
            {v: m for v, m in tc2.candidates.items() if v not in candidates}
        )
    if candidates:
        rows = []
        for var in sorted(candidates):
            m = candidates[var]
            p1 = _assigned(tc1, var)
            p2 = _assigned(tc2, var)
            rows.append([
                f"`{var}`",
                fmt_num(m.local_weight), fmt_num(m.transfer),
                fmt_num(m.weight), fmt_num(m.reg), fmt_num(m.mem),
                p1, p2,
            ])
        lines += _table(
            ["candidate", "Local_weight", "Transfer", "Weight", "Reg",
             "Mem", "phase 1", "phase 2"],
            rows,
        )
        lines.append("")

    if spills:
        lines.append("Spill decisions:")
        lines.append("")
        for s in spills:
            lines.append(
                f"- `{s.var}` → memory in {s.phase} ({s.reason}; "
                f"Weight={fmt_num(s.weight)}, Transfer={fmt_num(s.transfer)})"
            )
        lines.append("")
    if bindings:
        lines.append("Pseudo-register bindings (phase 2):")
        lines.append("")
        for b in sorted(bindings, key=lambda b: b.pseudo):
            lines.append(
                f"- `{b.pseudo}` (summary `{b.summary}`) → {_loc(b.binding)}"
            )
        lines.append("")
    if prefs:
        lines.append("Preferences honored:")
        lines.append("")
        for p in sorted(prefs, key=lambda p: (p.phase, p.var, p.color)):
            lines.append(f"- {p.phase}: `{p.var}` took {p.color} ({p.kind})")
        lines.append("")
    return lines


def _assigned(tc: Optional[TileColored], var: str) -> str:
    if tc is None:
        return "—"
    if var in tc.spilled:
        return "MEM"
    color = tc.assignment.get(var)
    return "—" if color is None else str(color)


def _boundary_section(boundary: List[BoundaryAction]) -> List[str]:
    if not boundary:
        return []
    lines = ["## Boundary edges (the four cases)", ""]
    rows = []
    for b in sorted(
        boundary, key=lambda b: (b.edge, not b.entering, b.var)
    ):
        direction = (
            f"enter tile #{b.child_tile}" if b.entering
            else f"exit tile #{b.child_tile}"
        )
        case = b.action
        if b.store_avoided:
            case += " (store avoided)"
        rows.append([
            f"{b.edge[0]} → {b.edge[1]}", direction, f"`{b.var}`",
            _loc(b.parent_loc), _loc(b.child_loc), case,
        ])
    lines += _table(
        ["edge", "direction", "variable", "parent loc", "child loc", "case"],
        rows,
    )
    lines.append("")
    counts = defaultdict(int)
    for b in boundary:
        counts[b.action] += 1
    lines.append(
        "Case totals: "
        + ", ".join(
            f"{case} = {counts[case]}" for case in BOUNDARY_ACTIONS
        )
        + "."
    )
    if counts["transfer"] == 0:
        lines.append(
            "transfer = 0 means preferencing aligned every "
            "register-to-register pair, so no cross-boundary moves "
            "were needed."
        )
    lines.append("")
    return lines


def render_schedule_summary(events: Sequence[object]) -> str:
    """One-line-per-stage timing summary (pipeline stages, then the
    per-tile timings summed per phase)."""
    timings = [e for e in events if isinstance(e, StageTiming)]
    lines: List[str] = []
    for t in (x for x in timings if x.category == "pipeline"):
        lines.append(f"{t.name:<24} {t.duration * 1e3:8.2f} ms")
    by_phase: Dict[str, List[StageTiming]] = defaultdict(list)
    for t in (x for x in timings if x.category == "tile"):
        by_phase[t.name.partition(":")[0]].append(t)
    for phase in sorted(by_phase):
        tiles = by_phase[phase]
        total = sum(t.duration for t in tiles) * 1e3
        lines.append(
            f"{phase + ' tiles':<24} {total:8.2f} ms across "
            f"{len(tiles)} tile(s)"
        )
    return "\n".join(lines)
