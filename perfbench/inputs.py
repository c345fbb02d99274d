"""Seeded inputs for the three workloads.

Every workload starts from one base module: ``synthetic_module(120,
seed=0)``, the module the batch bench uses, with simulator inputs.  Its
content is fixed on purpose: the exact quality counts (dynamic spill
references and moves) and the fuel ledger then compare across seeds, and
so does the work a pass does.  The workload seed shuffles the submission
order and renames every function (so every content address differs from
seed to seed), orders the edit rounds, and draws the service's request
mix, including the new functions it submits.

Each workload measures *items* that repeat within one run: a function
of the cold pass, a function edited once per edit cycle, a position in
the service's request cycle.  The host these runs on slows down for
seconds at a time, so an item's latency is its best repeat.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.batch.module import synthetic_module
from repro.determinism import edit_one_block
from repro.ir.printer import format_function
from repro.pipeline import Workload

BASE_SEED = 0
#: Module seed the service's new functions are drawn from.
NEW_SEED = 1
FUNCTIONS = 120
REGISTERS = 6

#: serve_mixed: functions per request; every this-many-th function of the
#: base module (by its unshuffled position, so the same functions for
#: every seed) is edited once per request cycle; the share of a cycle's
#: requests that also carry a new function.
GROUP_SIZE = 4
EDIT_EVERY = 5
NEW_SHARE = 0.05


def base_module(seed: int, count: int = FUNCTIONS) -> List[Workload]:
    """The base module, shuffled and renamed by *seed*."""
    module = synthetic_module(count, seed=BASE_SEED)
    out = []
    for index in _order(seed, count):
        workload = module[index]
        fn = workload.fn.clone()
        fn.name = f"{fn.name}_s{seed}"
        out.append(Workload(
            fn, dict(workload.args),
            {k: list(v) for k, v in workload.arrays.items()},
            name=f"{workload.label()}_s{seed}",
        ))
    return out


def _order(seed: int, count: int) -> List[int]:
    """Unshuffled position of each function of the shuffled module."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def edit_choices(seed: int, count: int) -> Iterator[int]:
    """Function indexes to edit: every function once per cycle, each
    cycle in a new seeded order."""
    rng = random.Random(seed * 7919 + 1)
    while True:
        cycle = list(range(count))
        rng.shuffle(cycle)
        yield from cycle


def request_plan(seed: int, requests: int, count: int = FUNCTIONS):
    """*requests* request bodies (``[{"name", "text"}]``) for serve_mixed,
    and the item each one measures.

    The shuffled base module is split into groups of
    :data:`GROUP_SIZE`.  A request cycle holds :data:`GROUP_SIZE` items
    per group; each resubmits its group.  One item per edit target (see
    :data:`EDIT_EVERY`) first edits the target in place
    (:func:`repro.determinism.edit_one_block`; the edit persists, as in
    an editing session), and :data:`NEW_SHARE` of the items also carry a
    function no request held before, drawn in a fixed order from another
    synthetic module.  Every cycle visits all items in a new seeded
    order, until *requests* bodies exist.
    """
    module = base_module(seed, count)
    order = _order(seed, count)
    names = [w.label() for w in module]
    fns = [w.fn for w in module]
    texts = [format_function(fn) for fn in fns]
    groups = [list(range(i, min(i + GROUP_SIZE, count)))
              for i in range(0, count, GROUP_SIZE)]
    rng = random.Random(seed * 104729 + 2)
    item_group = [g for g in range(len(groups)) for _ in range(GROUP_SIZE)]
    edit_at: Dict[int, int] = {}
    for member in range(count):
        if order[member] % EDIT_EVERY == 0:
            free = [i for i, g in enumerate(item_group)
                    if g == member // GROUP_SIZE and i not in edit_at]
            edit_at[rng.choice(free)] = member
    plain = [i for i in range(len(item_group)) if i not in edit_at]
    new_at = rng.sample(plain, max(1, round(len(item_group) * NEW_SHARE)))
    pool = [w.fn for i, w in enumerate(synthetic_module(count, seed=NEW_SEED))
            if i % 3]  # kernels repeat across module seeds; skip them
    # The k-th visit of the r-th new-function item draws pool function
    # r + k * len(new_at), whatever the seed, so that item's best latency
    # is taken over the same functions in every run.
    new_rank = {item: rank for rank, item in enumerate(new_at)}
    visits: Dict[int, int] = {}
    plan, items = [], []
    cycle: List[int] = []
    for i in range(requests):
        if not cycle:
            cycle = list(range(len(item_group)))
            rng.shuffle(cycle)
        item = cycle.pop()
        member = edit_at.get(item)
        if member is not None:
            edit_one_block(fns[member])
            texts[member] = format_function(fns[member])
        body = [{"name": names[m], "text": texts[m]}
                for m in groups[item_group[item]]]
        if item in new_rank:
            visit = visits.get(item, 0)
            visits[item] = visit + 1
            fn = pool[(new_rank[item] + visit * len(new_rank))
                      % len(pool)].clone()
            fn.name = f"{fn.name}_n{seed}_{i}"
            body.append({"name": fn.name, "text": format_function(fn)})
        plan.append(body)
        items.append(item)
    return plan, items
