"""Cross-process reproducibility fingerprints for the allocation pipeline.

The allocator promises bit-identical output regardless of Python's
per-process string-hash salt (``PYTHONHASHSEED``) or the platform.  This
module is the proof harness:

* :func:`allocation_fingerprint` compiles one workload end-to-end and
  condenses everything observable -- the allocated program text, the set
  of spilled variables, and the simulator's dynamic cost counters -- into
  a small JSON-friendly dict (:meth:`AllocationRecord.fingerprint_dict`);
* :data:`MODES` is the table of other paths to the same allocation --
  the batch engine's cold, cached and edited passes, the HTTP service, the
  per-tile incremental replay and the fuel-budgeted run.  Each mode
  returns, per workload, a fingerprint that must equal the direct one and
  a section that joins the output, so one loop compares them all;
* the ``fingerprint`` CLI command prints those dicts for a list of
  workloads, so a *fresh interpreter* can be asked for its view;
* the ``check`` CLI command re-runs ``fingerprint`` in subprocesses under
  several distinct ``PYTHONHASHSEED`` values and fails loudly on any
  divergence.

``tests/determinism/`` (E17's matrix), ``tests/test_golden.py`` and the
CI determinism gates all drive the same code paths, so "deterministic"
means one thing everywhere.

Tile ids and instruction uids come from process-global counters, but the
allocator renumbers both on its private copy before any derived name is
minted (see ``HierarchicalAllocator.allocate``), so fingerprints -- and
the per-tile cache keys the incremental mode exercises -- are pure
functions of (text, config, machine), not of process history.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch.serialize import fingerprint_view
from repro.batch.worker import compute_record
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.budget import BudgetLimits
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, prepare
from repro.workloads.generators import random_program
from repro.workloads.kernels import sequential_loops

#: Hash seeds the ``check`` command uses by default -- three distinct
#: salts (0 disables randomization; the others are arbitrary but fixed).
DEFAULT_HASH_SEEDS: Tuple[str, ...] = ("0", "1", "12345")

_ARRAYS = {
    "A": [3, -1, 4, 1, -5, 9, 2, -6],
    "B": [0] * 8,
    "C": [2, 7, 1, 8, 2, 8, 1, 8],
}
_ARGS = {"n": 6}

Fingerprint = Dict[str, object]


def _bench_workloads() -> List[Tuple[str, Callable[[], Function]]]:
    """The bench workload set, including the 428-block random program
    (``benchmarks/bench_scalability.py`` times the same set)."""
    return [
        ("seq_loops_100", lambda: sequential_loops(100)),
        ("rand_struct_327", lambda: random_program(
            seed=1, max_blocks=400, max_vars=40, max_depth=6, break_prob=0.05
        )),
        ("seq_loops_200", lambda: sequential_loops(200)),
        ("rand_struct_428", lambda: random_program(
            seed=3, max_blocks=800, max_vars=48, max_depth=7, break_prob=0.04
        )),
    ]


def workload_names() -> List[str]:
    return [name for name, _ in _bench_workloads()]


def build_workload(name: str) -> Workload:
    """A runnable :class:`Workload` for one bench workload name."""
    for candidate, factory in _bench_workloads():
        if candidate == name:
            return Workload(factory(), dict(_ARGS), dict(_ARRAYS), name=name)
    raise ValueError(
        f"unknown workload {name!r}; choose from {workload_names()}"
    )


def _record(workload: Workload, machine: Machine, **kwargs):
    """:func:`compute_record` of *workload*'s in-memory function under the
    default config: ``(record, stage_times, tile_cache)``."""
    return compute_record(
        workload.label(), workload.fn, HierarchicalConfig(), machine,
        args=workload.args, arrays=workload.arrays, **kwargs,
    )


def allocation_fingerprint(
    workload: Workload, machine: Optional[Machine] = None
) -> Fingerprint:
    """Compile *workload* end-to-end and fingerprint the result.

    The fingerprint covers everything the determinism guarantee promises:
    the full allocated program text (assignments *and* inserted spill
    code, hashed), the spilled-variable set, and the simulator's dynamic
    cost counters.  ``compile_function`` also verifies the allocated
    program differentially against the original, so a fingerprint is only
    produced for a *correct* allocation.
    """
    record, _, _ = _record(workload, machine or Machine.simple(8))
    return record.fingerprint_dict(workload.label())


def edit_one_block(fn: Function) -> str:
    """Apply a deterministic single-block edit to *fn* in place.

    Replaces one integer ``CONST`` instruction with one whose immediate
    is 1 higher (same uid) and returns the edited block's label.  The instruction is the middle one
    of the function's integer ``CONST`` sites, walked in the block
    dict's insertion order (not :meth:`Function.block_order`, the
    printed order), skipping the start block when another block has one.
    So two copies get the same edit only when they were built the same
    way: two builds of one workload do, which is what lets the
    incremental check compare a warm re-allocation against a fresh
    allocation of "the same edit", but a copy parsed back from the
    printed text need not.
    """
    from repro.ir.instructions import Opcode

    sites = [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.CONST and isinstance(instr.imm, int)
    ]
    inner = [s for s in sites if s[0] != fn.start_label]
    sites = inner or sites
    if not sites:
        raise RuntimeError(f"{fn.name}: no CONST instruction to edit")
    label, index = sites[len(sites) // 2]
    instrs = fn.block(label).instrs
    instrs[index] = instrs[index].replace(imm=instrs[index].imm + 1)
    return label


#: Binary opcodes whose operands commute: swapping them keeps the
#: program's meaning.
COMMUTATIVE = frozenset({
    Opcode.ADD, Opcode.MUL, Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR,
    Opcode.CMP_EQ, Opcode.CMP_NE,
})


def commutative_sites(fn: Function) -> List[Tuple[str, int]]:
    """The (label, index) of every commutative binary instruction
    (:data:`COMMUTATIVE`) in *fn* whose two uses differ, in the block
    dict's insertion order: the sites :func:`swap_operands` picks from."""
    return [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op in COMMUTATIVE and instr.uses[0] != instr.uses[1]
    ]


def swap_operands(fn: Function) -> str:
    """Apply a deterministic single-block edit to *fn* in place that
    changes an allocation input but keeps the program's meaning.

    Replaces one of :func:`commutative_sites` with the same instruction
    (same uid) with its two uses swapped, and returns the edited block's
    label.  The instruction is picked the way
    :func:`edit_one_block` picks its ``CONST``: the middle site in the
    block dict's insertion order, skipping the start block when another
    block has one.  Where :func:`edit_one_block` changes only an
    immediate, which no stage before the spill rewrite reads, this edit
    changes an instruction's operand order, so it dirties the tile that
    owns the block and that tile's ancestor chain.
    """
    sites = commutative_sites(fn)
    inner = [s for s in sites if s[0] != fn.start_label]
    sites = inner or sites
    if not sites:
        raise RuntimeError(
            f"{fn.name}: no commutative instruction with distinct operands"
        )
    label, index = sites[len(sites) // 2]
    instrs = fn.block(label).instrs
    instrs[index] = instrs[index].replace(uses=instrs[index].uses[::-1])
    return label


def _diverged(name: str, what: str, expected: object, got: object) -> str:
    return (
        f"{name}: {what}:\n"
        f"  expected: {json.dumps(expected, sort_keys=True)}\n"
        f"  got:      {json.dumps(got, sort_keys=True)}"
    )


# ----------------------------------------------------------------------
# modes: other paths to the direct allocation
# ----------------------------------------------------------------------
#: What a mode returns per workload: the fingerprint that must equal the
#: direct one, and the section the mode adds to the workload's output.
ModeResult = Dict[str, Tuple[Fingerprint, object]]


def _batch_mode(
    names: Sequence[str], registers: int, workers: int
) -> ModeResult:
    """Cold-, warm- and edited-module passes through one batch engine.

    The first pass computes (in *workers* pool processes, or in-process
    for 0) and fills the content-addressed cache; the second must be
    served entirely from it, with every function keyed from the engine's
    text memo, and every cached record must equal the computed one.
    Then the first workload is edited in place (:func:`edit_one_block`)
    and the module goes through a third time: exactly that function may
    be printed again, and its record must equal the direct allocation
    of the same edit.
    """
    from repro.batch import BatchConfig, BatchEngine

    workloads = [build_workload(name) for name in names]
    batch = BatchConfig(batch_workers=workers, registers=registers)
    with BatchEngine(batch=batch) as engine:
        cold = engine.allocate_module(workloads)
        before = engine.stats.keys_reused
        warm = engine.allocate_module(workloads)
        reused = engine.stats.keys_reused - before
        if reused != len(workloads):
            raise RuntimeError(
                f"warm batch pass keyed {reused} of {len(workloads)} "
                "functions from the text memo; the rest were printed again"
            )
        edit_one_block(workloads[0].fn)
        before = engine.stats.keys_reused
        edited = engine.allocate_module(workloads)[0]
        reused = engine.stats.keys_reused - before
        if reused != len(workloads) - 1:
            raise RuntimeError(
                f"edited batch pass keyed {reused} of {len(workloads)} "
                "functions from the text memo; exactly the edited one "
                "must be printed again"
            )
    fresh = build_workload(names[0])
    edit_one_block(fresh.fn)
    direct, _, _ = _record(fresh, Machine.simple(registers))
    if edited.record != direct:
        raise RuntimeError(_diverged(
            names[0], "edited batch record diverges from the direct "
            "allocation of the same edit", direct.fingerprint_dict(names[0]),
            edited.record and edited.record.fingerprint_dict(edited.name),
        ))

    out: ModeResult = {}
    for name, c, w in zip(names, cold, warm):
        if c.cached:
            raise RuntimeError(f"{name}: cold batch pass hit the cache")
        if not w.cached:
            raise RuntimeError(f"{name}: warm batch pass missed the cache")
        if c.record != w.record:
            raise RuntimeError(
                f"{name}: cached record diverges from computed record"
            )
        cold_fp = c.record.fingerprint_dict(c.name)
        out[name] = cold_fp, {
            "cold": cold_fp, "warm": w.record.fingerprint_dict(w.name),
        }
    return out


def _service_mode(
    names: Sequence[str], registers: int, _on: bool
) -> ModeResult:
    """The workloads served twice over HTTP by a live allocation service.

    Starts a real :class:`~repro.service.AllocationService` on a loopback
    ephemeral port and submits the workloads through the real client
    (functions as text, simulator inputs attached).  Both requests must
    succeed, the warm one entirely from the service's shared cache and
    with every function decoded from its source memo (no parse), and
    the cold wire payloads must equal the warm ones.
    """
    import asyncio

    from repro.batch import BatchConfig
    from repro.service import AllocationService, ServiceClient, ServiceConfig

    specs = [
        {
            "text": format_function(workload.fn),
            "name": workload.label(),
            "args": dict(workload.args),
            "arrays": {k: list(v) for k, v in workload.arrays.items()},
        }
        for workload in map(build_workload, names)
    ]

    async def _serve_and_allocate():
        config = ServiceConfig(batch=BatchConfig(
            batch_workers=0, registers=registers, simulate=True,
        ))
        async with AllocationService(config) as service:
            async with ServiceClient("127.0.0.1", service.port) as client:
                cold = await client.allocate(specs)
                before = service.metrics_payload()["service"]["sources"]
                warm = await client.allocate(specs)
                after = service.metrics_payload()["service"]["sources"]
                return cold, warm, after["hits"] - before["hits"]

    cold, warm, memo_hits = asyncio.run(_serve_and_allocate())
    for reply, label in ((cold, "cold"), (warm, "warm")):
        if reply.status != 200:
            raise RuntimeError(
                f"service {label} request failed: {reply.status} "
                f"{reply.data}"
            )
    if memo_hits != len(specs):
        raise RuntimeError(
            f"warm served request decoded {memo_hits} of {len(specs)} "
            "functions from the source memo; the rest were parsed again"
        )

    out: ModeResult = {}
    for name, c, w in zip(names, cold.data["results"],
                          warm.data["results"]):
        if not (c["ok"] and w["ok"]):
            raise RuntimeError(
                f"{name}: service allocation failed: "
                f"{c['error'] or w['error']}"
            )
        if not w["cached"]:
            raise RuntimeError(
                f"{name}: warm served request missed the shared cache"
            )
        cold_fp, warm_fp = (
            fingerprint_view(p["name"], p["blocks"], p["allocated_sha256"],
                             p["spilled"], p["costs"])
            for p in (c, w)
        )
        if cold_fp != warm_fp:
            raise RuntimeError(_diverged(
                name, "warm served payload diverges from cold",
                cold_fp, warm_fp,
            ))
        out[name] = cold_fp, cold_fp
    return out


#: The incremental mode's edits, each applied to a fresh build of the
#: workload: (section key, edit, whether the edit must dirty a tile).
_INCREMENTAL_EDITS = (
    ("swap_operands", swap_operands, True),
    ("bump_const", edit_one_block, False),
)


def _incremental_mode(
    names: Sequence[str], registers: int, _on: bool
) -> ModeResult:
    """The per-tile memoization proof.

    For each workload: allocate cold with a tile store attached (filling
    it; this is the fingerprint compared with the direct one), then, for
    each edit of :data:`_INCREMENTAL_EDITS`, apply it to a fresh build,
    re-allocate *warm* against the same store, and allocate the same edit
    fresh with no store.  The warm result must equal the fresh one.
    :func:`swap_operands` must reuse at least one clean subtree from the
    store and recompute at least one dirty tile.  :func:`edit_one_block`
    changes only an immediate, so it must replay every tile (no miss, the
    whole tree one reused subtree) and still print a program that differs
    from the unedited one.  The counters join the section, so the
    cross-process comparison covers them too.
    """
    from repro.core.incremental import TileCacheStore

    machine = Machine.simple(registers)
    out: ModeResult = {}
    for name in names:
        store = TileCacheStore()
        base, _, _ = _record(build_workload(name), machine, tile_store=store)
        base_fp = base.fingerprint_dict(name)
        section: Dict[str, object] = {"base": base_fp}
        for key, edit, dirties in _INCREMENTAL_EDITS:
            edited = build_workload(name)
            edited_label = edit(edited.fn)
            warm, _, counters = _record(edited, machine, tile_store=store)
            counters = dict(counters)

            fresh = build_workload(name)
            edit(fresh.fn)
            full_fp = allocation_fingerprint(fresh, machine)
            warm_fp = warm.fingerprint_dict(name)
            if warm_fp != full_fp:
                raise RuntimeError(_diverged(
                    name, f"warm incremental re-allocation after {key} "
                    "diverges from the fresh full allocation of the same "
                    "edit", full_fp, warm_fp,
                ))
            if dirties:
                if counters.get("subtrees_reused", 0) < 1:
                    raise RuntimeError(
                        f"{name}: warm re-allocation after {key} reused no "
                        f"clean subtree (counters: {counters}) -- the tile "
                        "cache is not hitting"
                    )
                if counters.get("tile_misses", 0) < 1:
                    raise RuntimeError(
                        f"{name}: warm re-allocation after {key} recomputed "
                        f"nothing (counters: {counters}) -- the edit did "
                        "not dirty a tile"
                    )
            elif (counters.get("tile_misses") != 0
                    or counters.get("subtrees_reused") != 1):
                raise RuntimeError(
                    f"{name}: warm re-allocation after {key} did not "
                    f"replay every tile (counters: {counters}) -- an "
                    "immediate reached a tile fingerprint"
                )
            elif warm_fp["program_sha256"] == base_fp["program_sha256"]:
                raise RuntimeError(
                    f"{name}: warm re-allocation after {key} printed the "
                    "unedited program"
                )
            section[key] = {
                "edited_block": edited_label,
                "full": full_fp,
                "incremental": warm_fp,
                "reuse": counters,
            }
        out[name] = base_fp, section
    return out


def _budget_mode(
    names: Sequence[str], registers: int, fuel: int
) -> ModeResult:
    """The workloads allocated under a ``max_fuel`` budget of *fuel*.

    Charges only count and abort, they never alter decisions, so a
    budgeted run that completes must equal the unbudgeted one -- and the
    fuel spend itself is a pure function of the input, so its counters
    join the section and two processes that *charge* differently fail the
    cross-process check even when they allocate identically.  *fuel* must
    be generous enough for every workload to complete; a run that
    exhausts it raises (the engine's governance tests own aborts:
    ``tests/test_adversarial.py``, ``tests/test_budget.py``).
    """
    machine = Machine.simple(registers)
    limits = BudgetLimits(max_fuel=fuel)
    out: ModeResult = {}
    for name in names:
        workload = build_workload(name)
        record, _, _ = _record(workload, machine, budget_limits=limits)
        governed = HierarchicalAllocator(budget_limits=limits)
        governed.allocate(prepare(workload.fn), machine)
        snap = governed.last_budget
        out[name] = record.fingerprint_dict(name), {
            "fuel": fuel, "spent": snap["spent"],
            "counters": snap["counters"],
        }
    return out


@dataclass(frozen=True)
class Mode:
    """One table entry: a path to the allocation that must equal the
    direct one.  ``metavar`` names the flag's integer argument; ``None``
    makes the flag a switch."""

    run: Callable[[Sequence[str], int, object], ModeResult]
    help: str
    metavar: Optional[str] = None


#: Every mode, by name.  The name is the CLI flag (``--<name>``), the
#: keyword of :func:`fingerprint_workloads` and the output section key.
MODES: Dict[str, Mode] = {
    "batch": Mode(
        _batch_mode,
        "fingerprint via the batch engine (cold pass + warm cache pass + "
        "a pass after one in-place edit) with N pool workers "
        "(0 = in-process); cached == computed == direct",
        "N",
    ),
    "service": Mode(
        _service_mode,
        "round-trip the workloads over HTTP through a live allocation "
        "service; served payloads must match the direct pipeline",
    ),
    "incremental": Mode(
        _incremental_mode,
        "run the per-tile memoization proof: for an operand swap and a "
        "constant bump, re-allocate warm against the tile store and "
        "compare against a fresh full allocation of the same edit (reuse "
        "counters included)",
    ),
    "budget": Mode(
        _budget_mode,
        "allocate under a max_fuel budget of FUEL units; the result must "
        "match the unbudgeted one and the fuel-spend counters join the "
        "fingerprint",
        "FUEL",
    ),
}


def _enabled(modes: Dict[str, object]) -> Dict[str, object]:
    """The modes switched on in *modes* (``None`` / ``False`` is off);
    raises :class:`ValueError` on a name :data:`MODES` does not know."""
    unknown = sorted(set(modes) - set(MODES))
    if unknown:
        raise ValueError(
            f"unknown determinism mode(s) {unknown}; choose from "
            f"{sorted(MODES)}"
        )
    return {
        name: value for name, value in modes.items()
        if value is not None and value is not False
    }


def fingerprint_workloads(
    names: Sequence[str], registers: int = 8, **modes: object
) -> Dict[str, Fingerprint]:
    """Fingerprints for *names*, in order, under the default config.

    Each keyword names a :data:`MODES` entry (``batch=2``,
    ``service=True``, ``budget=10**8``; ``None`` leaves it off).  Every
    enabled mode's fingerprint must equal the direct one, and its section
    joins each workload's dict under the mode's name.
    """
    enabled = _enabled(modes)
    machine = Machine.simple(registers)
    direct = {
        name: allocation_fingerprint(build_workload(name), machine)
        for name in names
    }
    out = {name: dict(fp) for name, fp in direct.items()}
    for mode, value in enabled.items():
        for name, (fp, section) in MODES[mode].run(
            names, registers, value
        ).items():
            if fp != direct[name]:
                raise RuntimeError(_diverged(
                    name, f"{mode} fingerprint diverges from the direct "
                    f"pipeline", direct[name], fp,
                ))
            out[name][mode] = section
    return out


# ----------------------------------------------------------------------
# subprocess plumbing
# ----------------------------------------------------------------------
def _src_pythonpath() -> str:
    """PYTHONPATH that makes ``import repro`` work in a child process."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def fingerprint_in_subprocess(
    names: Sequence[str],
    hash_seed: str,
    registers: int = 8,
    **modes: object,
) -> Dict[str, Fingerprint]:
    """Run ``fingerprint`` in a fresh interpreter under *hash_seed*, with
    the :data:`MODES` keywords of :func:`fingerprint_workloads`."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = _src_pythonpath()
    cmd = [
        sys.executable, "-m", "repro.determinism", "fingerprint",
        "--workloads", ",".join(names), "--registers", str(registers),
    ]
    for mode, value in _enabled(modes).items():
        cmd.append(f"--{mode}")
        if MODES[mode].metavar is not None:
            cmd.append(str(value))
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"fingerprint subprocess failed (seed={hash_seed}):\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout)


def cross_process_check(
    names: Sequence[str],
    hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
    registers: int = 8,
    **modes: object,
) -> List[str]:
    """Compare fingerprints across every hash seed.

    Each seed runs :func:`fingerprint_in_subprocess` with the same
    :data:`MODES` keywords, so every enabled mode's section -- cached
    records, served payloads, reuse counters, fuel spend -- joins the
    comparison: one divergent byte anywhere in the matrix fails the check.

    Returns a list of human-readable mismatch descriptions; empty means
    every hash seed produced bit-identical results.
    """
    runs = {
        seed: fingerprint_in_subprocess(names, seed, registers, **modes)
        for seed in hash_seeds
    }
    baseline_seed = hash_seeds[0]
    baseline = runs[baseline_seed]
    problems: List[str] = []
    for seed, run in runs.items():
        if seed == baseline_seed:
            continue
        for name in names:
            if run[name] != baseline[name]:
                problems.append(_diverged(
                    name, f"seed={seed} diverges from seed={baseline_seed}",
                    baseline[name], run[name],
                ))
    return problems


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_names(spec: str) -> List[str]:
    if spec == "all":
        return workload_names()
    return [part for part in spec.split(",") if part]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.determinism",
        description="allocation reproducibility fingerprints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fp = sub.add_parser("fingerprint", help="print fingerprints as JSON")
    ck = sub.add_parser("check", help="compare fingerprints across hash seeds")
    ck.add_argument(
        "--seeds", default=",".join(DEFAULT_HASH_SEEDS),
        help="comma-separated PYTHONHASHSEED values",
    )
    for command in (fp, ck):
        command.add_argument("--workloads", default="all")
        command.add_argument("--registers", type=int, default=8)
        for name, mode in MODES.items():
            kind = (
                {"action": "store_true"} if mode.metavar is None
                else {"type": int, "metavar": mode.metavar}
            )
            command.add_argument(
                f"--{name}", default=None, help=f"also {mode.help}", **kind
            )

    args = parser.parse_args(argv)
    names = _parse_names(args.workloads)
    modes = {name: getattr(args, name) for name in MODES}

    if args.command == "fingerprint":
        prints = fingerprint_workloads(names, args.registers, **modes)
        json.dump(prints, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    seeds = [s for s in args.seeds.split(",") if s]
    problems = cross_process_check(names, seeds, args.registers, **modes)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"FAIL: {len(problems)} divergence(s) across {len(seeds)} "
            f"hash seeds",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {len(names)} workload(s) bit-identical across {len(seeds)} "
        f"hash seeds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
