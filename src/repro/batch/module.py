"""Module sources for the batch engine.

A *module* is just an ordered list of :class:`~repro.pipeline.Workload`:

* :func:`load_module_dir` -- every ``.ir`` / ``.ml`` file in a directory
  (sorted by filename, so the submission order -- and with it the cache
  LRU state and result order -- is reproducible across runs and
  machines);
* :func:`synthetic_module` -- a deterministic generated module of
  arbitrary size, used by perfbench, the timing gates, the tests and the
  batch mode of ``repro.determinism`` (every function comes with runnable
  inputs so dynamic costs are simulated and verified).

A directory load is fault-isolated the same way the engine is: one
unparseable or invalid file never aborts the module.  It becomes a
structured :class:`ModuleFileError` on the returned :class:`ModuleLoad`
(a plain list of workloads otherwise -- existing callers keep indexing
and iterating it unchanged) and every well-formed sibling still loads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.ir.parser import parse_function
from repro.ir.validate import validate_function

#: File extensions the directory loader recognizes.
MODULE_EXTENSIONS = (".ir", ".ml")


@dataclass(frozen=True)
class ModuleFileError:
    """One file that could not be turned into a workload.

    ``stage`` is where it died (``"read"`` / ``"compile"`` / ``"parse"``
    / ``"validate"``); ``error_class`` is the taxonomy label from
    :func:`repro.errors.classify_exception`.
    """

    filename: str
    stage: str
    error_class: str
    message: str

    def describe(self) -> str:
        return (
            f"{self.filename}: {self.stage} failed "
            f"[{self.error_class}] {self.message}"
        )


class ModuleLoad(list):
    """The workloads of one directory plus its per-file load errors.

    Subclasses ``list`` so everything that consumed the old plain-list
    return value (iteration, ``len``, indexing, the engine) keeps
    working; ``errors`` carries the files that failed to load.
    """

    def __init__(self, workloads: Sequence = (),
                 errors: Sequence[ModuleFileError] = ()) -> None:
        super().__init__(workloads)
        self.errors: List[ModuleFileError] = list(errors)

    @property
    def ok(self) -> bool:
        return not self.errors


def load_module_dir(
    path: str,
    args: Optional[Mapping[str, Any]] = None,
    arrays: Optional[Mapping[str, Sequence[Any]]] = None,
) -> ModuleLoad:
    """Workloads for every IR/MiniLang file under *path* (sorted names).

    *args* / *arrays*, when given, are attached to every workload (the
    CLI's ``--arg`` / ``--array`` flags); without them the batch engine
    allocates statically (no simulation).

    A file that cannot be read, compiled, parsed or validated is
    reported as a :class:`ModuleFileError` on the result instead of
    raising -- the module's other files still load.  Raises
    ``FileNotFoundError`` only when *path* is not a directory or holds
    no candidate files at all."""
    from repro.errors import classify_exception
    from repro.pipeline import Workload

    if not os.path.isdir(path):
        raise FileNotFoundError(f"not a module directory: {path}")
    workloads: List = []
    errors: List[ModuleFileError] = []
    candidates = 0
    for filename in sorted(os.listdir(path)):
        ext = os.path.splitext(filename)[1]
        if ext not in MODULE_EXTENSIONS:
            continue
        candidates += 1
        full = os.path.join(path, filename)
        stage = "read"
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
            if ext == ".ml":
                from repro.minilang import compile_source

                stage = "compile"
                fn = compile_source(text)
            else:
                stage = "parse"
                fn = parse_function(text)
            stage = "validate"
            validate_function(fn)
        except Exception as exc:
            error_class, _ = classify_exception(exc)
            errors.append(ModuleFileError(
                filename=filename, stage=stage,
                error_class=error_class, message=str(exc),
            ))
            continue
        workloads.append(Workload(
            fn,
            dict(args or {}),
            {k: list(v) for k, v in (arrays or {}).items()},
            name=os.path.splitext(filename)[0],
        ))
    if candidates == 0:
        raise FileNotFoundError(
            f"no {'/'.join(MODULE_EXTENSIONS)} files in {path}"
        )
    return ModuleLoad(workloads, errors)


def synthetic_module(count: int, seed: int = 0) -> List:
    """A deterministic module of *count* runnable functions.

    Cycles through the kernel workloads and structured random programs
    (seeded from *seed* + position, so two calls with equal arguments
    produce textually identical modules -- the property the cache bench
    and determinism batch mode rely on)."""
    from repro.pipeline import Workload
    from repro.workloads.generators import random_program
    from repro.workloads.kernels import all_kernel_workloads

    kernels = all_kernel_workloads()
    workloads: List = []
    for position in range(count):
        if position % 3 == 0 and position // 3 < len(kernels):
            base = kernels[position // 3]
            workloads.append(Workload(
                base.fn, dict(base.args), dict(base.arrays),
                name=f"{position:03d}_{base.label()}",
            ))
            continue
        fn_seed = seed * 100_003 + position
        fn = random_program(
            seed=fn_seed,
            max_blocks=40 + (position % 5) * 12,
            max_vars=12 + (position % 4) * 6,
            max_depth=3 + (position % 3),
            break_prob=0.04 if position % 2 else 0.0,
            name=f"m{position}",
        )
        arrays: Dict[str, List[int]] = {
            "A": [((position * 7 + i * 3) % 17) - 8 for i in range(8)],
            "B": [0] * 8,
        }
        workloads.append(Workload(
            fn, {"n": 1 + position % 7}, arrays,
            name=f"{position:03d}_{fn.name}",
        ))
    return workloads
