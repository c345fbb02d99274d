"""Property-based tests (hypothesis) over random structured programs.

These are the repository's strongest evidence: for arbitrary generated
programs, tile trees are legal, analyses satisfy their defining equations,
and every allocator is a semantics-preserving transformation whose output
respects the machine.
"""

import hashlib
import json
import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.allocators import BriggsAllocator, ChaitinAllocator, LocalAllocator
from repro.analysis.dominators import compute_dominators
from repro.analysis.frequency import estimate_frequencies
from repro.analysis.liveness import block_use_def, compute_liveness
from repro.analysis.renaming import rename_webs
from repro.batch import BatchConfig, BatchEngine
from repro.cli import ALLOCATORS
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.incremental import TileCacheStore
from repro.errors import classify_exception
from repro.graph.coloring import color_graph, verify_coloring
from repro.graph.interference import InterferenceGraph
from repro.ir.instructions import BINARY_OPS, Instr, Opcode, is_phys
from repro.ir.parser import IRParseError, parse_function
from repro.ir.printer import format_function
from repro.ir.validate import IRValidationError, validate_function
from repro.machine.calls import lower_calls
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function, prepare
from repro.service.config import ServiceConfig
from repro.service.server import AllocationService, ServiceError
from repro.tiles.construction import build_tile_tree_detailed
from repro.tiles.validate import validate_tile_tree
from repro.workloads.callsites import make_caller
from repro.workloads.generators import random_program, random_workload
from repro.workloads.kernels import all_kernel_workloads

SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=SEEDS)
@COMMON
def test_generator_produces_valid_programs(seed):
    fn = random_program(seed)
    validate_function(fn)


@given(seed=SEEDS)
@COMMON
def test_generated_programs_execute(seed):
    w = random_workload(seed)
    result = simulate(w.fn, args=w.args, arrays=w.arrays)
    assert isinstance(result.returned, tuple)


@given(seed=SEEDS)
@COMMON
def test_tile_trees_always_legal(seed):
    fn = random_program(seed)
    build = build_tile_tree_detailed(fn)
    validate_tile_tree(build.tree)
    validate_function(fn)


@given(seed=SEEDS)
@COMMON
def test_dominator_invariants(seed):
    fn = random_program(seed)
    dom = compute_dominators(fn)
    for label in fn.blocks:
        if label not in dom.idom:
            continue
        assert dom.dominates(fn.start_label, label)
        parent = dom.idom[label]
        if label != fn.start_label:
            assert dom.strictly_dominates(parent, label)


@given(seed=SEEDS)
@COMMON
def test_liveness_fixed_point(seed):
    fn = random_program(seed)
    lv = compute_liveness(fn)
    for label, block in fn.blocks.items():
        uses, defs = block_use_def(block)
        assert lv.live_in[label] == frozenset(
            uses | (lv.live_out[label] - defs)
        )
        expected_out = frozenset().union(
            *(lv.live_in[s] for s in block.succ_labels)
        ) if block.succ_labels else frozenset()
        assert lv.live_out[label] == expected_out


@given(seed=SEEDS)
@COMMON
def test_renaming_preserves_behaviour(seed):
    w = random_workload(seed)
    renamed, reverse = rename_webs(w.fn)
    validate_function(renamed)
    a = simulate(w.fn, args=w.args, arrays=w.arrays)
    b = simulate(renamed, args=dict(w.args), arrays=w.arrays)
    assert a.returned == b.returned
    for new, old in reverse.items():
        assert new == old or new.split("%")[0] == old


@given(seed=SEEDS)
@COMMON
def test_frequency_flow_conservation(seed):
    fn = random_program(seed)
    freq = estimate_frequencies(fn)
    for label in fn.blocks:
        if label == fn.start_label:
            continue
        inflow = sum(f for (u, v), f in freq.edge_freq.items() if v == label)
        assert inflow == pytest.approx(freq.block_freq[label], rel=1e-5, abs=1e-7)


@given(
    seed=SEEDS,
    registers=st.sampled_from([2, 3, 4, 6]),
    allocator_cls=st.sampled_from(
        [HierarchicalAllocator, ChaitinAllocator, BriggsAllocator, LocalAllocator]
    ),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_allocation_preserves_semantics(seed, registers, allocator_cls):
    """The headline property: any allocator, any register count, any
    generated program -- observable behaviour is unchanged and the output
    touches only machine registers."""
    w = random_workload(seed)
    result = compile_function(w, allocator_cls(), Machine.simple(registers))
    assert result.reference_run.returned == result.allocated_run.returned
    for block in result.fn.blocks.values():
        for instr in block.instrs:
            for var in instr.defs + instr.uses:
                assert is_phys(var)


def _shuffle_blocks(fn, rng):
    labels = list(fn.blocks)
    rng.shuffle(labels)
    fn.blocks = {label: fn.blocks[label] for label in labels}
    fn.invalidate_caches()


def _permute_uids(fn, rng):
    uids = [instr.uid for block in fn for instr in block.instrs]
    rng.shuffle(uids)
    uids = iter(uids)
    for block in fn:
        block.instrs = [instr.replace(uid=next(uids)) for instr in block.instrs]


@pytest.mark.parametrize(
    "perturb", [_shuffle_blocks, _permute_uids],
    ids=["shuffled_blocks", "permuted_uids"],
)
@given(seed=SEEDS, registers=st.sampled_from([2, 4, 6]))
@COMMON
def test_allocation_is_a_function_of_the_text(perturb, seed, registers):
    """Block dict order and instruction uids are not in the printed
    text, so perturbing either must not move any allocator's output:
    the function compiles to what its parsed-back text compiles to."""
    w = random_workload(seed)
    perturb(w.fn, random.Random(seed))
    parsed = Workload(parse_function(format_function(w.fn)), w.args, w.arrays)
    machine = Machine.simple(registers)
    for name, allocator_cls in sorted(ALLOCATORS.items()):
        direct = compile_function(w, allocator_cls(), machine)
        back = compile_function(parsed, allocator_cls(), machine)
        assert format_function(direct.fn) == format_function(back.fn), name


def _pick_instr(fn, rng, wanted=lambda instr: True):
    sites = [
        (block, index) for block in fn
        for index, instr in enumerate(block.instrs) if wanted(instr)
    ]
    return rng.choice(sites)


def _replace(block, index, **fields):
    """Replace one instruction by a copy with *fields* changed."""
    block.instrs[index] = block.instrs[index].replace(**fields)


def _reassign_clobbers(fn, rng, warm):
    """Generated programs make no calls: plant one, warm, then edit it."""
    block, index = _pick_instr(fn, rng)
    call = Instr(Opcode.CALL, uses=("t_a",), imm="f", clobbers=("R1",))
    block.instrs.insert(index, call)
    warm()
    _replace(block, index, clobbers=("R1", "R2"))


def _imm(before, after):
    """Set a CONST's immediate to *before*, warm, then to *after*."""
    def edit(fn, rng, warm):
        block, index = _pick_instr(fn, rng, lambda i: i.op is Opcode.CONST)
        _replace(block, index, imm=before)
        warm()
        _replace(block, index, imm=after)
    return edit


def _bump_imm(fn, rng, warm):
    block, index = _pick_instr(fn, rng, lambda i: i.op is Opcode.CONST)
    _replace(block, index, imm=block.instrs[index].imm + 1)


def _mutable_imm(fn, rng, warm):
    """A CONST's immediate can neither become a list nor grow in place:
    each attempt raises and leaves the function as it was, so the value
    changes only by a replacement."""
    block, index = _pick_instr(fn, rng, lambda i: i.op is Opcode.CONST)
    with pytest.raises(TypeError):
        _replace(block, index, imm=[1])
    _replace(block, index, imm=1)
    warm()
    with pytest.raises(AttributeError):
        block.instrs[index].imm = [1, 2]
    _replace(block, index, imm=12)


def _swap_op(fn, rng, warm):
    block, index = _pick_instr(fn, rng, lambda i: i.op in BINARY_OPS)
    op = block.instrs[index].op
    _replace(block, index, op=Opcode.SUB if op is Opcode.ADD else Opcode.ADD)


def _reassign(field):
    def edit(fn, rng, warm):
        block, index = _pick_instr(fn, rng, lambda i: getattr(i, field))
        names = getattr(block.instrs[index], field)
        _replace(block, index, **{field: tuple(f"{v}_e" for v in names)})
    return edit


def _insert_instr(fn, rng, warm):
    block, index = _pick_instr(fn, rng)
    block.instrs.insert(index, Instr(Opcode.CONST, defs=("t_e",), imm=3))


def _remove_instr(fn, rng, warm):
    block, index = _pick_instr(fn, rng)
    del block.instrs[index]


def _replace_instr(fn, rng, warm):
    block, index = _pick_instr(fn, rng)
    block.instrs[index] = Instr(Opcode.NOP)


def _relabel_block(fn, rng, warm):
    block = fn.blocks[rng.choice(sorted(fn.blocks))]
    block.label += "_e"


def _repeat_successor(fn, rng, warm):
    """A repeated successor prints, but leaves the block order as it was."""
    block = rng.choice([b for b in fn if b.succ_labels])
    block.succ_labels.append(block.succ_labels[0])
    fn.invalidate_caches()


def _late_invalidate(fn, rng, warm):
    """Successors reordered, printed before ``invalidate_caches()`` (so
    in the stale block order), then invalidated: only the order moves."""
    block = rng.choice([b for b in fn if b.succ_labels])
    block.succ_labels.reverse()
    warm()
    fn.invalidate_caches()


def _add_block(fn, rng, warm):
    src, dst = rng.choice(fn.edges())
    fn.insert_block_on_edge(src, dst)


def _remove_block(fn, rng, warm):
    """Unlink a block, sending its predecessors to its first successor."""
    label = rng.choice(sorted(
        label for label, block in fn.blocks.items()
        if set(block.succ_labels) - {label} and label != fn.start_label
    ))
    target = next(s for s in fn.blocks[label].succ_labels if s != label)
    for block in fn:
        block.succ_labels = [
            target if succ == label else succ for succ in block.succ_labels
        ]
    del fn.blocks[label]
    fn.invalidate_caches()


def _append_param(fn, rng, warm):
    fn.params.append("p_e")


def _rename(fn, rng, warm):
    fn.name += "_e"


def _move_start(fn, rng, warm):
    """A new key and ``start_label`` for the start block, whose
    ``label`` stays: only the header's ``start=`` changes."""
    old = fn.start_label
    fn.start_label = f"{old}_e"
    fn.blocks = {
        fn.start_label if label == old else label: block
        for label, block in fn.blocks.items()
    }
    fn.invalidate_caches()


def _move_stop(fn, rng, warm):
    fn.stop_label = rng.choice(sorted(set(fn.blocks) - {fn.stop_label}))


TEXT_EDITS = {
    "imm_bumped": _bump_imm,
    "imm_1_to_True": _imm(1, True),
    "imm_0_to_0.0": _imm(0, 0.0),
    "imm_0.0_to_-0.0": _imm(0.0, -0.0),
    "imm_list_mutated": _mutable_imm,
    "op": _swap_op,
    "defs": _reassign("defs"),
    "uses": _reassign("uses"),
    "clobbers": _reassign_clobbers,
    "instr_inserted": _insert_instr,
    "instr_removed": _remove_instr,
    "instr_replaced": _replace_instr,
    "block_label": _relabel_block,
    "succ_labels": _repeat_successor,
    "succ_labels_late_invalidate": _late_invalidate,
    "block_added": _add_block,
    "block_removed": _remove_block,
    "params": _append_param,
    "name": _rename,
    "start_label": _move_start,
    "stop_label": _move_stop,
}


@pytest.mark.parametrize("edit", list(TEXT_EDITS.values()), ids=list(TEXT_EDITS))
@given(seed=SEEDS)
@COMMON
def test_text_memo_never_serves_a_stale_text(edit, seed):
    """The engine keys a function it has seen from its text memo while
    the function's stamp holds, so no in-place edit of a printed field
    may leave the memo serving the text from before the edit."""
    w = random_workload(seed)
    with BatchEngine(batch=BatchConfig()) as engine:
        engine.entry_for(w)
        engine.entry_for(w)
        assert engine.stats.keys_reused == 1
        edit(w.fn, random.Random(seed), lambda: engine.entry_for(w))
        _, text, fingerprint, _ = engine.entry_for(w)
    assert text == format_function(w.fn)
    assert fingerprint == hashlib.sha256(text.encode()).hexdigest()


#: TEXT_EDITS after which ``prepare`` rejects the function every time,
#: so there is no allocation to replay: a block whose label no longer
#: matches its key (``block_label``, ``start_label``), a repeated
#: successor past the terminator's arity (``succ_labels``), and a stop
#: block with successors (``stop_label``).
UNALLOCATABLE_EDITS = frozenset(
    {"block_label", "start_label", "succ_labels", "stop_label"}
)
#: TEXT_EDITS after which ``prepare`` rejects the function some of the
#: time: removing or replacing a branch, or unlinking a block that is
#: the only way into another.  The property assumes a valid result.
SOMETIMES_INVALID_EDITS = frozenset(
    {"instr_removed", "instr_replaced", "block_removed"}
)


def _valid(fn):
    try:
        validate_function(fn)
    except IRValidationError:
        return False
    return True


def _const_imms(fn, labels):
    """The printed immediates of the CONST instructions in *labels*."""
    return [
        repr(instr.imm) for label in labels
        for instr in fn.blocks[label].instrs if instr.op is Opcode.CONST
    ]


@pytest.mark.parametrize(
    "name", [name for name in TEXT_EDITS if name not in UNALLOCATABLE_EDITS]
)
@given(seed=SEEDS)
@COMMON
def test_tile_replay_never_serves_a_stale_allocation(name, seed):
    """A tile store filled before an in-place edit (and, for an edit
    with a middle state, at that state) must never hand the edited
    function a stale tile: its warm re-allocation equals a fresh one.
    An edit of an immediate changes no allocation input, so it replays
    every tile and prints the new immediate."""
    w = random_workload(seed)
    machine = Machine.simple(4)
    store = TileCacheStore()

    def warm():
        HierarchicalAllocator(tile_store=store).allocate(
            prepare(w.fn), machine
        )

    warm()
    TEXT_EDITS[name](w.fn, random.Random(seed), warm)
    assume(name not in SOMETIMES_INVALID_EDITS or _valid(w.fn))
    edited = prepare(w.fn)
    replay = HierarchicalAllocator(tile_store=store)
    got = replay.allocate(edited, machine)
    fresh = HierarchicalAllocator().allocate(edited, machine)
    assert format_function(got.fn) == format_function(fresh.fn)
    if name.startswith("imm_"):
        assert replay.last_tile_cache["tile_misses"] == 0
        assert _const_imms(got.fn, edited.blocks) == _const_imms(
            edited, edited.blocks
        )


class _RecordingStore(TileCacheStore):
    """A tile store that records every key it is asked for, in order:
    each tile's phase-1 fingerprint in postorder, then each tile's
    phase-2 key in preorder."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return super().get(key)


def _change_imms(fn, rng):
    """Give every immediate another value of its kind: another CONST
    integer, other load/store array names, other callee names.  Clobbers
    stay as they are."""
    for block in fn:
        for index, instr in enumerate(block.instrs):
            if instr.op is Opcode.CONST:
                _replace(block, index, imm=instr.imm + rng.randint(1, 1000))
            elif instr.op in (Opcode.LOAD, Opcode.STORE, Opcode.CALL):
                _replace(block, index, imm=instr.imm + "_x")


def _text_without_imms(fn):
    """*fn*'s text with every CONST/LOAD/STORE/CALL immediate erased."""
    copy = fn.clone()
    for block in copy:
        for index, instr in enumerate(block.instrs):
            if instr.op in (Opcode.CONST, Opcode.LOAD, Opcode.STORE,
                            Opcode.CALL):
                _replace(block, index, imm=None)
    return format_function(copy)


def _assert_blind_to_imms(fn, machine, rng):
    """Allocating *fn* and *fn* with every immediate changed hashes the
    same tile fingerprints (and phase-2 keys), and allocates the same
    program up to its immediates."""
    other = fn.clone()
    _change_imms(other, rng)
    runs = []
    for subject in (fn, other):
        store = _RecordingStore()
        out = HierarchicalAllocator(tile_store=store).allocate(
            prepare(subject), machine
        )
        runs.append((store.keys, _text_without_imms(out.fn)))
    assert runs[0][0] == runs[1][0], "a tile fingerprint read an immediate"
    assert runs[0][1] == runs[1][1]


@given(seed=SEEDS, registers=st.sampled_from([4, 6]))
@COMMON
def test_allocation_never_reads_an_immediate(seed, registers):
    """Tile fingerprints leave immediates out, which is sound only if
    no allocation stage reads one: changing every immediate of a
    program must leave each fingerprint and the allocation as they
    were."""
    _assert_blind_to_imms(
        random_program(seed), Machine.simple(registers), random.Random(seed)
    )


@pytest.mark.parametrize("registers", [4, 6])
def test_kernels_allocation_never_reads_an_immediate(registers):
    """The same over the kernels and a lowered caller, whose calls carry
    clobbers."""
    rng = random.Random(registers)
    for workload in all_kernel_workloads(8):
        _assert_blind_to_imms(workload.fn, Machine.simple(registers), rng)
    machine = Machine.with_linkage(registers, num_callee_save=1)
    _assert_blind_to_imms(lower_calls(make_caller(2), machine), machine, rng)


@given(seed=SEEDS)
@COMMON
def test_hierarchical_tile_colorings_valid(seed):
    """Within every tile, conflicting nodes get different registers."""
    from repro.core.summary import MEM

    w = random_workload(seed)
    allocator = HierarchicalAllocator()
    compile_function(w, allocator, Machine.simple(3))
    for alloc in allocator.last_allocations.values():
        for a, b in alloc.graph.edges():
            la, lb = alloc.phys.get(a), alloc.phys.get(b)
            if la not in (None, MEM) and lb not in (None, MEM):
                assert la != lb


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        max_size=40,
    ),
    k=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_coloring_engine_validity(edges, k):
    """Random graphs: assignments returned by the engine never color two
    adjacent nodes the same."""
    g = InterferenceGraph()
    for a, b in edges:
        if a != b:
            g.add_edge(f"v{a}", f"v{b}")
    for a in range(12):
        g.add_node(f"v{a}")
    result = color_graph(
        g, k=k, color_order=[f"R{i}" for i in range(k)]
    )
    assert not verify_coloring(g, result.assignment)
    assert len(result.used_colors) <= k
    for node in g.nodes():
        assert (node in result.assignment) != (node in result.spilled)


@given(seed=SEEDS, n=st.integers(1, 6))
@COMMON
def test_spill_slots_isolated_per_variable(seed, n):
    """Differential run with distinct inputs: memory state must match, so
    slots can never be shared by live variables."""
    w = random_workload(seed)
    w.args = {"n": n}
    result = compile_function(w, HierarchicalAllocator(), Machine.simple(2))
    ref = result.reference_run
    out = result.allocated_run
    canon = lambda arrays: {
        name: {i: v for i, v in contents.items() if v != 0}
        for name, contents in arrays.items()
    }
    assert canon(ref.arrays) == canon(out.arrays)


@given(seed=SEEDS)
@COMMON
def test_minilang_fuzz_compiles_and_runs(seed):
    """Source-level fuzzing: every generated MiniLang program compiles,
    validates, terminates, and allocates correctly."""
    from repro.workloads.minilang_fuzz import random_minilang_workload

    w = random_minilang_workload(seed)
    validate_function(w.fn)
    result = compile_function(w, HierarchicalAllocator(), Machine.simple(3))
    assert result.allocated_run.returned == result.reference_run.returned


@given(seed=SEEDS)
@COMMON
def test_minilang_fuzz_optimizer_agrees(seed):
    """The optimizer must not change a fuzzed program's behaviour, before
    or after register allocation."""
    from repro.opt import optimize
    from repro.workloads.minilang_fuzz import random_minilang_workload

    w = random_minilang_workload(seed)
    optimized = optimize(w.fn)
    a = simulate(w.fn, args=w.args, arrays=w.arrays)
    b = simulate(optimized, args=dict(w.args), arrays=w.arrays)
    assert a.returned == b.returned


#: One-line mutations of a printed function: delete, duplicate, swap or
#: truncate a line, replace a token, or rewrite a successor list.
MUTATIONS = ("delete", "duplicate", "swap", "truncate", "token", "successors")

#: Tokens a mutation may put in place of a word, besides the text's own:
#: names, mnemonics and literals valid somewhere, and some valid nowhere.
_TOKENS = (
    "nowhere", "add", "copy", "const", "cbr", "ret", "br", "load", "call",
    "spillld", "R1", "x", "", "True", "0.5", "1e999", "[1, 2]", "'s'",
    "(1, [2])",
)
_WORD = re.compile(r"([\w.$%]+)")


def _mutate(text, kind, rng):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    elif kind == "token":
        parts = _WORD.split(lines[i])
        if len(parts) > 1:
            parts[rng.randrange(1, len(parts), 2)] = rng.choice(
                _TOKENS + tuple(_WORD.findall(text))
            )
        lines[i] = "".join(parts)
    else:
        labels = re.findall(r"^([\w.$%]+):$", text, re.M) + ["nowhere"]
        arrows = [k for k, line in enumerate(lines) if line.startswith("  ->")]
        if arrows:
            lines[rng.choice(arrows)] = "  -> " + ", ".join(
                rng.choice(labels) for _ in range(rng.randrange(4))
            )
    return "\n".join(lines) + "\n"


def _direct_class(text):
    """The class parse -> prepare -> allocate -> print ends in."""
    try:
        out = HierarchicalAllocator().allocate(
            prepare(parse_function(text)), Machine.simple(4)
        )
        format_function(out.fn)
    except Exception as exc:  # noqa: BLE001 -- classified, as the service does
        return classify_exception(exc)[0]
    return "ok"


def _service_classes(text):
    """The classes of the service's per-function parse errors."""
    service = AllocationService(
        ServiceConfig(batch=BatchConfig(batch_workers=0))
    )
    body = json.dumps({"functions": [{"text": text}]}).encode()
    try:
        service._parse_allocate_body(body)
    except ServiceError as exc:
        return [error["error_class"] for error in exc.detail["errors"]]
    return []


@given(
    seed=SEEDS,
    subject=st.integers(0, 15),
    kind=st.sampled_from(MUTATIONS),
)
@COMMON
def test_mutated_text_never_fails_internally(seed, subject, kind):
    """Malformed input ends as a classified error, never ``internal``
    (the class of a genuine bug): a one-line mutation of a kernel's or a
    random program's text, through the direct path, the service's
    parser, and -- as an in-memory function next to a valid one --
    ``allocate_module``, which still allocates the valid one."""
    kernels = all_kernel_workloads(8)
    valid = kernels[0]
    fn = kernels[subject].fn if subject < len(kernels) else random_program(seed)
    text = _mutate(format_function(fn), kind, random.Random(seed))
    assert _direct_class(text) != "internal"
    assert "internal" not in _service_classes(text)
    try:
        mutated = parse_function(text)
    except IRParseError:
        return
    with BatchEngine(batch=BatchConfig(simulate=False)) as engine:
        results = engine.allocate_module(
            [Workload(mutated, {}, {}), valid]
        ).results
    assert results[1].ok
    error = results[0].error
    assert error is None or error.error_class != "internal", error
