"""Stable, versioned serialization of allocation results.

The batch engine's cache stores *results*, so a record must capture
everything a cache hit has to reproduce bit-for-bit: the rewritten
program text (assignments **and** inserted spill code -- the text is the
complete binding), the spilled-variable set, and the simulator's cost
counters when the workload carried inputs.  Nothing else: every field is
a function of the cache key, so the submission's label travels beside
the record (``BatchResult.name``), never in it.

Three keys guard correctness:

* the **content address** (:func:`function_fingerprint`) -- sha256 of the
  canonical input program text, the same canonicalization
  ``repro.determinism`` fingerprints are built on;
* the **invalidation key** (:func:`invalidation_key`) -- sha256 over the
  record format version, a hash of the allocator's own source code
  (:func:`code_version`), the semantic :class:`HierarchicalConfig`
  fields and the machine description.  Any allocator code change or
  config change silently invalidates every prior record;
* the **inputs digest** (:func:`inputs_digest`) -- sha256 of the
  workload's simulator inputs (``args``/``arrays``).  A record stores
  the dynamic cost counters and the simulator's return value, both of
  which depend on the inputs the function ran on, so the same function
  simulated with different inputs must occupy different cache slots.
  It is empty when the record is input-independent (simulation off, or
  no inputs supplied: ``costs``/``returned`` are then ``None``).

``cache_key = fingerprint + "-" + invalidation_key [+ "-" + inputs]`` is
the address the :mod:`repro.batch.cache` layers store under.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.config import HierarchicalConfig
from repro.ir.printer import format_function
from repro.machine.target import Machine

#: Bump when the record layout below changes shape or meaning.
#: v2: added ``allocator`` (which allocator produced the record -- the
#: degradation ladder can cache-bypass fallback results, but the field
#: still travels with every record so consumers can tell).
#: v3: added ``tile_fingerprints`` (per-tile content addresses).
#: v4: removed ``tile_fingerprints`` again -- nothing read them, and only
#: store-attached runs filled them in, so two records under one cache key
#: could differ.  The version sits inside the invalidation key, so older
#: records are unreachable under v4 keys and any that are loaded directly
#: fail :func:`record_from_dict`.
#: v5: removed ``function``, ``fingerprint`` and ``bindings``: a record
#: holds only what its cache key fixes and a reader reads.
FORMAT_VERSION = 5

#: Subpackages whose source feeds :func:`code_version` -- everything that
#: can change what an allocation *produces*, including ``opt`` (which
#: ``prepare(optimize=True)`` runs).  Orchestration-only
#: code (``repro.batch`` itself, ``repro.trace``, the CLI) is excluded;
#: ``minilang`` is covered by the content address (the fingerprint hashes
#: the *compiled* function, so codegen changes change the fingerprint).
_CODE_VERSION_PACKAGES = (
    "analysis",
    "allocators",
    "core",
    "graph",
    "ir",
    "machine",
    "opt",
    "perf",
    "tiles",
)

#: Top-level modules hashed alongside the packages: ``pipeline.py`` owns
#: ``prepare``/``compile_function``, the path every cached record was
#: produced through.
_CODE_VERSION_MODULES = ("pipeline.py",)

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """sha256 over the allocation-relevant source files of ``repro``.

    Computed once per process.  Hashing source (file names + bytes, in
    sorted order) instead of a hand-bumped constant means a cached record
    can never survive an allocator change that should have invalidated it.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for package in _CODE_VERSION_PACKAGES:
            pkg_dir = os.path.join(root, package)
            for dirpath, dirnames, filenames in sorted(os.walk(pkg_dir)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, root)
                    digest.update(rel.encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
        for module in _CODE_VERSION_MODULES:
            path = os.path.join(root, module)
            digest.update(module.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def function_fingerprint(fn) -> str:
    """Content address of one input function: sha256 of its canonical
    printed text (:func:`repro.ir.printer.format_function`)."""
    return text_fingerprint(format_function(fn))


def text_fingerprint(text: str) -> str:
    """Content address of already-canonical printed text -- callers that
    hold the formatted program (the batch engine formats it for the task
    payload anyway) hash it directly instead of formatting twice."""
    return hashlib.sha256(text.encode()).hexdigest()


class UncacheableConfigError(ValueError):
    """The config cannot be stably serialized into an invalidation key."""


def config_signature(config: HierarchicalConfig) -> Dict[str, object]:
    """JSON-stable dict of the *semantic* config fields."""
    if config.frequencies is not None:
        raise UncacheableConfigError(
            "profile-guided frequencies are per-run data and cannot key "
            "a content-addressed cache; allocate without caching instead"
        )
    return {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name != "frequencies"
    }


def machine_signature(machine: Machine) -> Dict[str, object]:
    """JSON-stable dict of the machine description."""
    return {
        "num_registers": machine.num_registers,
        "callee_save": sorted(machine.callee_save),
        "arg_regs": list(machine.arg_regs),
        "ret_regs": list(machine.ret_regs),
        "load_cost": machine.load_cost,
        "store_cost": machine.store_cost,
        "move_cost": machine.move_cost,
    }


def invalidation_key(config: HierarchicalConfig, machine: Machine) -> str:
    """Key covering everything besides the input program that can change
    an allocation result."""
    payload = {
        "format_version": FORMAT_VERSION,
        "code_version": code_version(),
        "config": config_signature(config),
        "machine": machine_signature(machine),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def inputs_digest(
    args: Mapping[str, object], arrays: Mapping[str, object]
) -> str:
    """sha256 over a workload's simulator inputs, in canonical JSON.

    Folded into the cache key whenever a record will carry simulated
    (input-dependent) fields; see the module docstring.  Returns ``""``
    when both mappings are empty -- nothing gets simulated, so the record
    is a pure function of the content address alone.
    """
    if not args and not arrays:
        return ""
    payload = {
        "args": {str(k): v for k, v in args.items()},
        "arrays": {str(k): list(v) for k, v in arrays.items()},
    }
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(fingerprint: str, invalidation: str, inputs: str = "") -> str:
    """The content address records are stored under.

    *inputs* is the :func:`inputs_digest` of the workload's simulator
    inputs -- pass ``""`` (the default) when the record is
    input-independent (simulation off, or no inputs supplied).
    """
    if inputs:
        return f"{fingerprint}-{invalidation}-{inputs}"
    return f"{fingerprint}-{invalidation}"


@dataclass(frozen=True)
class AllocationRecord:
    """One cached allocation result (everything a hit reproduces).

    ``costs`` is ``None`` when the workload carried no inputs (nothing
    was simulated).  Every field is determined by the cache key: how the
    allocation was computed (pooled or inline, with or without a tile
    store) and under which label leave no trace in the record
    (``tests/test_batch_engine.py::TestOneKeyOneResult``).
    """

    version: int
    blocks: int
    allocated_sha256: str
    allocated_text: str
    spilled: Tuple[str, ...]
    static_costs: Mapping[str, int]
    costs: Optional[Mapping[str, int]]
    #: the simulator's observable return value, normalized to JSON shape
    #: (tuples become lists) so in-process and round-tripped records
    #: compare equal; ``None`` when nothing was simulated.
    returned: Optional[object]
    #: which allocator produced this record: ``"hierarchical"`` on the
    #: normal path, ``"chaitin"`` / ``"naive"`` for degradation-ladder
    #: fallbacks (those are never written to the cache -- the cache key is
    #: the *hierarchical* content address; see the batch engine).
    allocator: str = "hierarchical"

    def fingerprint_dict(self, name: str) -> Dict[str, object]:
        """This record's ``repro.determinism`` fingerprint as *name*."""
        return fingerprint_view(
            name, self.blocks, self.allocated_sha256, self.spilled,
            self.costs,
        )


def fingerprint_view(
    function: str,
    blocks: int,
    allocated_sha256: str,
    spilled: Sequence[str],
    costs: Optional[Mapping[str, int]],
) -> Dict[str, object]:
    """The ``repro.determinism`` fingerprint of the submission *function*:
    the allocated program's hash, its spilled-variable set and (when it
    was simulated) the dynamic cost counters.  The one place its keys are
    spelled -- :meth:`AllocationRecord.fingerprint_dict` and the service's
    wire payloads both go through it."""
    out: Dict[str, object] = {
        "workload": function,
        "blocks": blocks,
        "program_sha256": allocated_sha256,
        "spilled": list(spilled),
    }
    if costs is not None:
        out["costs"] = dict(costs)
    return out


def record_to_dict(record: AllocationRecord) -> Dict[str, object]:
    """JSON-ready dict (stable field order via sort_keys at dump time)."""
    return dataclasses.asdict(record)


def record_from_dict(payload: Mapping[str, object]) -> AllocationRecord:
    """Inverse of :func:`record_to_dict`; raises on format drift."""
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"allocation record version {version!r} != {FORMAT_VERSION} "
            "(stale cache entry; delete the cache dir or bump capacity)"
        )
    return AllocationRecord(
        version=FORMAT_VERSION,
        blocks=int(payload["blocks"]),
        allocated_sha256=str(payload["allocated_sha256"]),
        allocated_text=str(payload["allocated_text"]),
        spilled=tuple(payload["spilled"]),
        static_costs={
            str(k): int(v) for k, v in dict(payload["static_costs"]).items()
        },
        costs=(
            None
            if payload.get("costs") is None
            else {str(k): int(v) for k, v in dict(payload["costs"]).items()}
        ),
        returned=normalize_returned(payload.get("returned")),
        allocator=str(payload.get("allocator", "hierarchical")),
    )


def normalize_returned(value: object) -> Optional[object]:
    """JSON-shape normalization of a simulator return value (tuples and
    lists both become lists, recursively)."""
    if isinstance(value, (tuple, list)):
        return [normalize_returned(v) for v in value]
    return value


def dumps_record(record: AllocationRecord) -> str:
    """Canonical JSON text for one record (bit-stable across processes)."""
    return json.dumps(record_to_dict(record), sort_keys=True,
                      separators=(",", ":"))


def loads_record(text: str) -> AllocationRecord:
    return record_from_dict(json.loads(text))
