"""Live-range renaming: split variables into *webs*.

The paper assumes "each program variable has been fully renamed [9]" so a
variable with distinct live ranges receives distinct registers per range
(footnote 2).  We implement the classic web construction: a web is a maximal
set of definitions and uses connected through def-use chains.  Each web of a
variable with more than one web is renamed ``v%k``.

Webs are computed from reaching definitions with a union-find over
definition sites; every use unions all definitions reaching it.

The dataflow runs over **dense site-id bitmasks**: every definition site
gets an integer id, each block's reaching-in state is a single Python-int
bitset over those ids, and the transfer function is two word operations
(``(in & ~kill) | gen``).  Each site belongs to exactly one variable, so
one combined mask carries what the classic per-variable dict-of-sets
lattice did, and per-variable slices come back via ``mask &
var_sites_mask[var]``.  The fixed point is the same (the equations have a
unique LFP), and so is every downstream decision: all sites reaching a
common use land in one web, so picking *any* reaching site as the web
representative is order-independent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.function import Function

# A definition site: (block label, instruction uid, def slot index).
# Parameters are modelled as definitions at a synthetic entry site.
DefSite = Tuple[str, int, int]


def _find(parent: List[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:  # path compression
        parent[x], x = root, parent[x]
    return root


def _reaching_definitions(fn: Function):
    """Block-level reaching definitions over site-id bitmasks.

    Returns ``(reach_in, sites, site_id, var_mask, var_site_ids)``:
    ``reach_in[label]`` is the bitset of site ids reaching the block
    entry, ``sites[i]`` the :data:`DefSite` tuple of id *i*, ``site_id``
    maps ``(uid, slot)`` to the id (instruction uids are function-unique;
    parameters use uid ``-1``), ``var_mask[var]`` the bitset of all of
    *var*'s sites and ``var_site_ids[var]`` those ids in first-seen
    order.
    """
    sites: List[DefSite] = []
    site_id: Dict[Tuple[int, int], int] = {}
    var_mask: Dict[str, int] = {}
    var_site_ids: Dict[str, List[int]] = {}

    # gen[label]: var -> last def site id in block (downward-exposed).
    gen_last: Dict[str, Dict[str, int]] = {}
    for label, block in fn.blocks.items():
        local: Dict[str, int] = {}
        for instr in block.instrs:
            uid = instr.uid
            for slot, var in enumerate(instr.defs):
                sid = len(sites)
                sites.append((label, uid, slot))
                site_id[(uid, slot)] = sid
                local[var] = sid
                var_mask[var] = var_mask.get(var, 0) | (1 << sid)
                var_site_ids.setdefault(var, []).append(sid)
        gen_last[label] = local

    start = fn.start_label
    entry_mask = 0
    for i, param in enumerate(fn.params):
        sid = len(sites)
        sites.append((start, -1, i))
        site_id[(-1, i)] = sid
        var_mask[param] = var_mask.get(param, 0) | (1 << sid)
        var_site_ids.setdefault(param, []).append(sid)
        entry_mask |= 1 << sid

    # Per-block transfer masks: gen = last site per defined var, kill =
    # every site of every var defined in the block.
    gen_mask: Dict[str, int] = {}
    kill_mask: Dict[str, int] = {}
    for label, local in gen_last.items():
        g = k = 0
        for var, sid in local.items():
            g |= 1 << sid
            k |= var_mask[var]
        gen_mask[label] = g
        kill_mask[label] = k

    reach_in: Dict[str, int] = {label: 0 for label in fn.blocks}
    reach_in[start] = entry_mask

    preds = fn.predecessors_map()
    succs = {label: fn.blocks[label].succ_labels for label in fn.blocks}
    order = fn.rpo()
    # Forward worklist; the start block's in-state is pinned to the
    # parameter sites (never recomputed from predecessors), matching the
    # classic formulation.
    worklist = list(reversed(order))
    pending = set(worklist)
    out_state: Dict[str, int] = {}
    while worklist:
        label = worklist.pop()
        pending.discard(label)
        if label == start:
            new_in = entry_mask
        else:
            new_in = 0
            for pred in preds[label]:
                o = out_state.get(pred)
                if o is not None:
                    new_in |= o
        reach_in[label] = new_in
        new_out = (new_in & ~kill_mask[label]) | gen_mask[label]
        if out_state.get(label) != new_out:
            out_state[label] = new_out
            for s in succs[label]:
                if s not in pending and s in reach_in:
                    pending.add(s)
                    worklist.append(s)

    # A final sweep recomputes every in-state from the converged outs so
    # blocks whose predecessors changed after their last visit are exact.
    for label in order:
        if label != start:
            new_in = 0
            for pred in preds[label]:
                o = out_state.get(pred)
                if o is not None:
                    new_in |= o
            reach_in[label] = new_in

    return reach_in, sites, site_id, var_mask, var_site_ids


def rename_webs(fn: Function) -> Tuple[Function, Dict[str, str]]:
    """Return a copy of *fn* with every web given a distinct name.

    Also returns the mapping ``new_name -> original_name`` so results can
    be reported against source variables.  Functions already in web form
    round-trip unchanged (modulo the fresh copy).

    The webs are found and renamed on
    :meth:`~repro.ir.function.Function.canonical_copy`: web numbering
    sorts definition sites by uid, so it must read renumbered uids for
    the result to be a function of the printed text.
    """
    out = fn.canonical_copy()
    reach_in, sites, site_id, var_mask, var_site_ids = (
        _reaching_definitions(out)
    )
    parent = list(range(len(sites)))

    # Union defs that reach a common use.
    for label, block in out.blocks.items():
        cur = reach_in[label]
        for instr in block.instrs:
            for var in instr.uses:
                m = cur & var_mask.get(var, 0)
                if m:
                    low = m & -m
                    first = _find(parent, low.bit_length() - 1)
                    m ^= low
                    while m:
                        low = m & -m
                        rb = _find(parent, low.bit_length() - 1)
                        if first != rb:
                            parent[first] = rb
                            first = rb
                        m ^= low
            uid = instr.uid
            for slot, var in enumerate(instr.defs):
                cur = (cur & ~var_mask[var]) | (
                    1 << site_id[(uid, slot)]
                )

    # Defs of the same variable never reaching a common use but also uses
    # of a variable live at stop (return side effects) stay separate webs.
    # Assign web names.
    web_name: List[str] = [""] * len(sites)
    reverse: Dict[str, str] = {}
    for var, ids in var_site_ids.items():
        roots: Dict[int, List[int]] = {}
        for sid in ids:
            roots.setdefault(_find(parent, sid), []).append(sid)
        if len(roots) == 1:
            for sid in ids:
                web_name[sid] = var
            reverse[var] = var
            continue
        # Deterministic ordering of webs by first site.  The web containing
        # a parameter's entry definition keeps the original name so callers
        # can still pass arguments by source name.
        ordered = sorted(
            roots.values(),
            key=lambda group: sorted(sites[sid] for sid in group),
        )
        k = 0
        for group in ordered:
            if any(sites[sid][1] == -1 for sid in group):
                name = var
            else:
                name = f"{var}%{k}"
                k += 1
            for sid in group:
                web_name[sid] = name
            reverse[name] = var

    # Rename in *out*'s own blocks, replacing only the instructions
    # whose names change.
    for label, block in out.blocks.items():
        cur = reach_in[label]
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            use_names = []
            for var in instr.uses:
                m = cur & var_mask.get(var, 0)
                if m:
                    # All sites reaching a common use were unioned above,
                    # so any reaching site names the web.
                    use_names.append(web_name[(m & -m).bit_length() - 1])
                else:
                    use_names.append(var)  # never-defined: keep as-is
            uid = instr.uid
            def_names = []
            for slot, var in enumerate(instr.defs):
                sid = site_id[(uid, slot)]
                def_names.append(web_name[sid])
                cur = (cur & ~var_mask[var]) | (1 << sid)
            uses = tuple(use_names)
            defs = tuple(def_names)
            if uses != instr.uses or defs != instr.defs:
                instrs[index] = instr.replace(uses=uses, defs=defs)

    # Parameters keep their original name (the entry web): if a
    # parameter's entry web got renamed, keep the param list pointing at
    # the new name of its entry web.
    new_params = []
    for i, param in enumerate(out.params):
        sid = site_id.get((-1, i))
        new_params.append(web_name[sid] if sid is not None else param)
    out.params = new_params
    return out, reverse
