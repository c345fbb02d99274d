"""Tests for the structured allocation-tracing layer (repro.trace).

Covers the zero-cost null default, event capture across every event
type, the Figure-1 golden event sequences (leaning on the determinism
guarantee), sink round-trips, and the property that tracing never
changes allocation output.
"""

import json
import re

import pytest

from repro.core import HierarchicalAllocator
from repro.core.incremental import TileCacheStore
from repro.core.spill_code import _boundary_case
from repro.core.summary import MEM
from repro.ir import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function, prepare
from repro.trace import (
    BOUNDARY_ACTIONS,
    AllocationTracer,
    BoundaryAction,
    ChromeTraceSink,
    JSONLSink,
    MemorySink,
    NULL_TRACER,
    PreferenceApplied,
    PseudoBound,
    SpillDecision,
    StageTiming,
    TileColored,
    render_report,
)
from repro.trace.sinks import event_to_dict
from repro.workloads.figure1 import FIGURE1_REGISTERS, figure1
from repro.workloads.kernels import dot, nested_cond


def traced_run(fn, registers=FIGURE1_REGISTERS, config=None):
    """Allocate *fn* with an in-memory tracer; return (allocator, sink)."""
    memory = MemorySink()
    allocator = HierarchicalAllocator(
        config, tracer=AllocationTracer([memory])
    )
    allocator.allocate(prepare(fn), Machine.simple(registers))
    return allocator, memory


def tile_index(allocator):
    """Preorder index per tile id -- normalizes the process-global ids."""
    return {
        t.tid: i for i, t in enumerate(allocator.last_context.tree.preorder())
    }


class TestNullTracer:
    def test_default_is_shared_null(self):
        allocator = HierarchicalAllocator()
        assert allocator.tracer is NULL_TRACER
        assert not allocator.tracer.enabled

    def test_null_is_inert(self):
        NULL_TRACER.emit(object())
        NULL_TRACER.count("anything", 3)
        assert NULL_TRACER.counters() == {}
        NULL_TRACER.close()

    def test_context_carries_null_by_default(self):
        allocator = HierarchicalAllocator()
        allocator.allocate(prepare(figure1()), Machine.simple(4))
        assert allocator.last_context.tracer is NULL_TRACER


class TestEventCapture:
    def test_every_event_type_appears_on_figure1(self):
        _, memory = traced_run(figure1())
        seen = {type(e) for e in memory.events}
        assert {
            TileColored, SpillDecision, BoundaryAction,
            PreferenceApplied, PseudoBound, StageTiming,
        } <= seen

    def test_both_phases_color_every_tile(self):
        allocator, memory = traced_run(figure1())
        tiles = len(allocator.last_context.tree)
        for phase in ("phase1", "phase2"):
            colored = [
                e for e in memory.of_type(TileColored) if e.phase == phase
            ]
            assert len(colored) == tiles

    def test_counters_match_events(self):
        memory = MemorySink()
        tracer = AllocationTracer([memory])
        allocator = HierarchicalAllocator(tracer=tracer)
        allocator.allocate(prepare(figure1()), Machine.simple(4))
        counters = tracer.counters()
        assert counters["events.TileColored"] == len(
            memory.of_type(TileColored)
        )
        assert counters["events.BoundaryAction"] == len(
            memory.of_type(BoundaryAction)
        )
        for action in BOUNDARY_ACTIONS:
            emitted = sum(
                1 for e in memory.of_type(BoundaryAction)
                if e.action == action
            )
            assert counters.get(f"boundary.{action}", 0) == emitted

    def test_candidate_metrics_present(self):
        _, memory = traced_run(figure1())
        body = [
            e for e in memory.of_type(TileColored)
            if e.phase == "phase1" and e.kind == "body"
        ]
        assert len(body) == 1
        metrics = body[0].candidates
        # The body tile sees the paper's named variables with their
        # section-4 quantities.
        for var in ("g1", "g2", "n", "one"):
            assert var in metrics
            assert metrics[var].weight >= 0.0
        assert metrics["n"].transfer > 0  # live across both loop boundaries


class TestFigure1Golden:
    """Exact expected sequences -- valid because allocation (and hence
    the non-timing event stream) is bit-deterministic."""

    def test_spill_decision_sequence(self):
        allocator, memory = traced_run(figure1())
        idx = tile_index(allocator)
        got = [
            (idx[e.tile_id], e.phase, e.var, e.reason)
            for e in memory.of_type(SpillDecision)
        ]
        assert got == [
            (1, "phase1", "g2", "no_color"),
            (1, "phase1", "i1", "no_color"),
            (2, "phase2", "g1", "no_color"),
            (3, "phase2", "n", "no_color"),
        ]

    def test_boundary_action_sequence(self):
        _, memory = traced_run(figure1())
        got = [
            (e.edge, e.var, e.action)
            for e in memory.of_type(BoundaryAction)
        ]
        assert got == [
            (("B1", "B2"), "g1", "no_change"),
            (("B1", "B2"), "g2", "no_change"),
            (("B1", "B2"), "i1", "reload"),
            (("B1", "B2"), "n", "spill"),
            (("B1", "B2"), "one", "no_change"),
            (("B2", "MID"), "g1", "no_change"),
            (("B2", "MID"), "g2", "no_change"),
            (("B2", "MID"), "n", "spill"),
            (("B2", "MID"), "one", "no_change"),
            (("MID", "B3"), "g1", "spill"),
            (("MID", "B3"), "g2", "reload"),
            (("MID", "B3"), "i2", "no_change"),
            (("MID", "B3"), "one", "no_change"),
            (("B3", "B4"), "g1", "spill"),
            (("B3", "B4"), "g2", "reload"),
            (("start", "B1"), "n", "no_change"),
        ]

    def test_paper_prescription_on_second_loop(self):
        # Figure 1's point: g1 spilled *around* the loop that doesn't use
        # it, g2 reloaded *into* the loop that does.
        _, memory = traced_run(figure1())
        entry = {
            (e.var, e.action)
            for e in memory.of_type(BoundaryAction)
            if e.entering and e.edge == ("MID", "B3")
        }
        assert ("g1", "spill") in entry
        assert ("g2", "reload") in entry

    def test_repeat_run_identical_modulo_timings(self):
        # Tile ids are process-global, so both the id fields and the
        # pseudo-register / summary names embedding them (``t8.p0``,
        # ``ts:8:...``) must be normalized before comparing runs.
        def normalized():
            allocator, memory = traced_run(figure1())
            idx = tile_index(allocator)
            out = []
            for e in memory.events:
                if isinstance(e, StageTiming):
                    continue  # the only nondeterministic event type
                d = event_to_dict(e)
                for key in ("tile_id", "parent_tile", "child_tile"):
                    if key in d:
                        d[key] = idx[d[key]]
                text = json.dumps(d, sort_keys=True)
                text = re.sub(
                    r"ts:(\d+):",
                    lambda m: f"ts:{idx[int(m.group(1))]}:",
                    text,
                )
                text = re.sub(
                    r"\bt(\d+)\.p",
                    lambda m: f"t{idx[int(m.group(1))]}.p",
                    text,
                )
                out.append(text)
            # Operand temporaries embed instruction uids, which are also
            # process-global; uids grow in program order, so ranking them
            # gives a stable dense renumbering.
            uids = sorted(
                {int(m) for t in out for m in re.findall(r"tmp:(\d+):", t)}
            )
            rank = {uid: i for i, uid in enumerate(uids)}
            return [
                re.sub(
                    r"tmp:(\d+):",
                    lambda m: f"tmp:{rank[int(m.group(1))]}:",
                    t,
                )
                for t in out
            ]

        assert normalized() == normalized()


class TestBoundaryCase:
    def test_all_four_cases(self):
        assert _boundary_case("R0", "R0") == "no_change"
        assert _boundary_case(MEM, MEM) == "no_change"
        assert _boundary_case("R0", MEM) == "spill"
        assert _boundary_case("R0", "R1") == "transfer"
        assert _boundary_case(MEM, "R1") == "reload"

    def test_names_are_the_declared_vocabulary(self):
        assert set(BOUNDARY_ACTIONS) == {
            "spill", "transfer", "reload", "no_change"
        }


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        memory = MemorySink()
        tracer = AllocationTracer([memory, JSONLSink(str(path))])
        allocator = HierarchicalAllocator(tracer=tracer)
        allocator.allocate(prepare(figure1()), Machine.simple(4))
        tracer.close()

        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(memory.events)
        decoded = [json.loads(line) for line in lines]
        assert [d["type"] for d in decoded] == [
            type(e).__name__ for e in memory.events
        ]
        # JSON round-trips the full payload (tuples become lists).
        boundary = [d for d in decoded if d["type"] == "BoundaryAction"]
        assert boundary and all(
            d["action"] in BOUNDARY_ACTIONS for d in boundary
        )

    # The test id predates the removal of the thread scheduler; the
    # sequential drivers now emit the per-tile rows it checks.
    def test_chrome_trace_on_parallel_run(self, tmp_path):
        path = tmp_path / "timeline.json"
        tracer = AllocationTracer([ChromeTraceSink(str(path))])
        allocator = HierarchicalAllocator(tracer=tracer)
        allocator.allocate(prepare(nested_cond()), Machine.simple(4))
        tracer.close()

        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert metadata and complete
        # One named row per thread that emitted a timing.
        assert {m["name"] for m in metadata} == {"thread_name"}
        # Every tile is timed once per phase, phase 1 in postorder and
        # phase 2 in preorder.
        tree = allocator.last_context.tree
        tile_rows = [e["name"] for e in complete if e["cat"] == "tile"]
        assert tile_rows == (
            [f"phase1:tile{t.tid}" for t in tree.postorder()]
            + [f"phase2:tile{t.tid}" for t in tree.preorder()]
        )
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)

    def test_memory_sink_of_type(self):
        _, memory = traced_run(figure1())
        both = memory.of_type(SpillDecision, BoundaryAction)
        assert len(both) == len(memory.of_type(SpillDecision)) + len(
            memory.of_type(BoundaryAction)
        )


class TestReport:
    def test_report_contains_metrics_and_cases(self):
        allocator, memory = traced_run(figure1())
        text = render_report(
            memory.events,
            tree_text=allocator.last_context.tree.format(),
        )
        for column in ("Local_weight", "Transfer", "Weight", "Reg", "Mem"):
            assert column in text
        for case in BOUNDARY_ACTIONS:
            assert case in text  # case totals name all four
        assert "Case totals:" in text

    def test_report_empty_stream(self):
        assert render_report([]).startswith("# ")


WORKLOADS = [
    ("figure1", figure1, FIGURE1_REGISTERS),
    ("dot", dot, 3),
    ("nested_cond", nested_cond, 4),
]


class TestTracingIsObservational:
    """Property: enabling tracing never changes allocation output."""

    @pytest.mark.parametrize(
        "name,factory,registers", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    @pytest.mark.parametrize("driver", ["seq", "incremental"])
    def test_traced_equals_untraced(self, name, factory, registers, driver):
        def fingerprint(tracer):
            store = TileCacheStore() if driver == "incremental" else None
            allocator = HierarchicalAllocator(
                tracer=tracer, tile_store=store
            )
            allocator.allocate(prepare(factory()), Machine.simple(registers))
            out = allocator.last_context.fn
            idx = tile_index(allocator)  # tile ids are process-global
            spilled = {
                idx[tid]: sorted(
                    v for v, loc in alloc.phys.items() if loc == MEM
                )
                for tid, alloc in allocator.last_allocations.items()
            }
            return format_function(out), spilled

        traced = fingerprint(AllocationTracer([MemorySink()]))
        untraced = fingerprint(None)
        assert traced == untraced

    def test_pipeline_fingerprint_equal(self):
        # End to end through compile_function (differentially verified).
        def run(tracer):
            result = compile_function(
                Workload(figure1(), args={"n": 6}, name="figure1"),
                HierarchicalAllocator(),
                Machine.simple(FIGURE1_REGISTERS),
                tracer=tracer,
            )
            return (
                format_function(result.fn),
                result.allocated_run.spill_memory_refs,
                result.moves,
            )

        tracer = AllocationTracer([MemorySink()])
        assert run(tracer) == run(None)
        # The pipeline stages themselves were traced.
        stage_names = {
            e.name for e in tracer.sinks[0].of_type(StageTiming)
        }
        assert "pipeline:allocate" in stage_names
