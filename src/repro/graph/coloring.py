"""Graph coloring with preferences (paper section 3, "Coloring").

The engine implements the Briggs-style optimistic scheme the paper adopts:
every node is eventually pushed on the "colorable stack" -- nodes with fewer
than ``k`` conflicts first, then spill candidates in order of increasing
value -- and actual spilling is decided only when a popped node finds no
color.  Preference handling follows the paper:

* a node may carry a *local preference* (a specific color it wants);
* preference *pairs* want to share some arbitrary color: when one member is
  colored, uncolored partners inherit the color as their local preference;
* when coloring a node without a local preference, colors that are local
  preferences of still-uncolored conflicting neighbours are avoided; if that
  leaves nothing, the engine "reverts to standard coloring techniques";
* *boundary* nodes (globals live at tile boundaries) try to take a color
  "separate from any other color already used subject to the constraint of
  using only ||R|| colors" so the top-down phase retains freedom to bind
  local and global colors independently.

The engine is **integer-core**: it runs directly over the graph's id-level
masks (see :class:`~repro.graph.interference.InterferenceGraph`), colors are
interned to small ids so forbidden/avoid sets are single-int bitmasks, and
every name comparison in the original heaps is replaced by a *rank* (the
node's position in the sorted name list), which orders identically.  All
per-node hot state (degree, priority, assigned color, dynamic preference,
rank) lives in dense Python lists indexed by graph id -- seeded from the
graph's incrementally maintained neighbour/degree/rank caches -- so the
per-edge inner loops (``decrement_neighbors``, ``forbidden_for``,
``neighbour_pref_colors``) index C arrays and never probe a dict.  The
string behaviour is exactly preserved -- inputs and results are plain
string mappings.

Invariants callers rely on:

* :func:`color_graph` never mutates its inputs -- the graph, priority,
  precolored and preference mappings are only read, so a caller may pass
  the same graph through repeated recoloring rounds.
* the outcome is a pure function of the inputs: node selection is driven
  by (degree, rank) / (metric, rank) heaps and the color-reuse list is
  seeded in sorted order, so no decision inherits hash-salted iteration
  order (the cross-process determinism gate depends on this).
* nodes in ``never_spill`` either receive a color or raise
  :class:`NoColorForRequiredNode`; they are never silently spilled.
* the optional ``trace_hook`` is strictly observational (it receives
  preference outcomes and must not feed anything back).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.interference import InterferenceGraph


class NoColorForRequiredNode(RuntimeError):
    """A node that must receive a color (infinite spill cost or a required
    physical register) could not be colored."""

    def __init__(self, message: str, node: str) -> None:
        super().__init__(message)
        self.node = node


class ColoringInvariantError(RuntimeError):
    """An internal invariant of the coloring engine was violated.

    The lazy-heap select loop relies on every remaining ``>= k``-degree
    node keeping at least one valid spill-heap entry (a fresh one is
    pushed on every degree decrement).  If the heap nevertheless runs
    dry -- which takes a corrupted graph cache or lost entries, never a
    legal input -- the engine raises this instead of a bare
    ``IndexError`` so :func:`repro.errors.classify_exception` can map it
    to a stable error class and the batch degradation ladder can fall
    back to a simpler allocator rather than crash the module."""


@dataclass
class ColoringResult:
    """Outcome of one coloring run."""

    assignment: Dict[str, str]
    spilled: Set[str]
    used_colors: List[str]
    stack_order: List[str] = field(default_factory=list)


def color_graph(
    graph: InterferenceGraph,
    k: int,
    color_order: Sequence[str],
    priorities: Optional[Mapping[str, float]] = None,
    precolored: Optional[Mapping[str, str]] = None,
    local_prefs: Optional[Mapping[str, str]] = None,
    pref_pairs: Optional[Iterable[Tuple[str, str]]] = None,
    never_spill: Optional[Set[str]] = None,
    boundary: Optional[Set[str]] = None,
    pessimistic: bool = False,
    spill_heuristic: str = "cost_over_degree",
    trace_hook: Optional[Callable[[str, str, str], None]] = None,
    budget=None,
) -> ColoringResult:
    """Color *graph* with at most *k* distinct colors.

    Args:
        graph: the conflict graph.
        k: ``|R|`` -- the maximum number of simultaneous colors.
        color_order: colors to draw fresh colors from, in preference order
            (physical registers for final binding, pseudo-register tokens
            during the bottom-up phase).  Colors introduced by *precolored*
            or *local_prefs* may lie outside this sequence; they count
            toward the *k* budget all the same.
        priorities: spill value per node -- higher means more deserving of
            a register (the paper's ``Weight``); missing nodes default 0.
        precolored: fixed assignments (linkage registers, parent bindings).
        local_prefs: desired color per node (paper's local preference).
        pref_pairs: pairs that would like to share a color.
        never_spill: nodes with infinite spill cost (operand temporaries);
            failure to color one raises :class:`NoColorForRequiredNode`.
        boundary: nodes that try for a fresh color before reusing one.
        pessimistic: use original-Chaitin behaviour -- a node chosen as a
            spill candidate is spilled immediately instead of optimistically
            pushed (ablation only).
        spill_heuristic: how the next spill candidate is ranked --
            ``"cost_over_degree"`` (Chaitin's ratio, the paper's choice),
            ``"cost"`` (pure benefit, Bernstein-style single criterion), or
            ``"degree"`` (most-constraining node first).  The paper notes
            "our algorithm could easily use either method".
        trace_hook: observational callback ``(node, color, kind)`` invoked
            when a preference is honored -- ``kind`` is ``"local"`` for a
            local-preference hit, ``"partner"`` for an inherited partner
            color (see :mod:`repro.trace`).
        budget: optional :class:`~repro.core.budget.AllocationBudget`
            charged once per simplify-loop pop (the select loop replays
            the same stack, so one charge covers both).
    """
    if spill_heuristic not in ("cost_over_degree", "cost", "degree"):
        raise ValueError(f"unknown spill heuristic {spill_heuristic!r}")
    # Inputs are only read, never mutated -- hold references, don't copy.
    priorities = priorities if priorities is not None else {}
    precolored = precolored if precolored is not None else {}
    local_prefs = local_prefs if local_prefs is not None else {}
    never_spill = never_spill if never_spill is not None else frozenset()
    boundary = boundary if boundary is not None else frozenset()

    # ------------------------------------------------------------------
    # Lower names to ids.  Graph nodes keep their graph ids; precolored
    # nodes and preference-pair members absent from the graph get fresh
    # ids above them (local to this call -- the graph is not mutated).
    # ------------------------------------------------------------------
    g_ids = graph.node_ids()
    g_names = graph.id_names()
    # Copy-on-write: extras (precolored nodes or pair members outside the
    # graph) are rare, so the graph's own dicts are shared until the first
    # fresh interning actually happens.
    ids: Dict[str, int] = g_ids
    names: Dict[int, str] = g_names
    nxt = graph._next

    def local_intern(var: str) -> int:
        nonlocal nxt, ids, names
        i = ids.get(var)
        if i is None:
            if ids is g_ids:
                ids = dict(g_ids)
                names = dict(g_names)
            i = nxt
            nxt += 1
            ids[var] = i
            names[i] = var
        return i

    partners: Dict[int, Set[int]] = {}
    for a, b in pref_pairs or ():
        if a == b:
            continue
        ia = local_intern(a)
        ib = local_intern(b)
        partners.setdefault(ia, set()).add(ib)
        partners.setdefault(ib, set()).add(ia)
    # Partner inspection takes the lowest *name*; pre-sort once.
    partner_sorted: Dict[int, List[int]] = (
        {i: sorted(s, key=names.__getitem__) for i, s in partners.items()}
        if partners
        else {}
    )

    # Colors are interned too, so forbidden/avoid sets are bitmasks.
    cids: Dict[str, int] = {}
    cnames: List[str] = []

    def cintern(color: str) -> int:
        ci = cids.get(color)
        if ci is None:
            ci = len(cnames)
            cids[color] = ci
            cnames.append(color)
        return ci

    color_order_ids = [cintern(c) for c in color_order]

    # The algorithm's node set: graph nodes plus precolored extras (the
    # extras are precolored, so they never enter a heap and need no degree
    # or priority entries).
    precolored_ids: Dict[int, int] = {}
    for var, color in precolored.items():
        precolored_ids[local_intern(var)] = cintern(color)

    # Local preferences are interned up front too, so every id this run
    # will ever touch exists before the dense arrays are sized.  (Extra
    # node ids and color ids are pure identities -- their numeric values
    # never steer an outcome -- so hoisting this above the simplify loop
    # is behaviour-preserving.)
    pref_seed: List[Tuple[int, int]] = [
        (local_intern(var), cintern(color))
        for var, color in local_prefs.items()
    ]

    never_mask = 0
    for var in never_spill:
        i = ids.get(var)
        if i is not None:
            never_mask |= 1 << i
    boundary_mask = 0
    for var in boundary:
        i = ids.get(var)
        if i is not None:
            boundary_mask |= 1 << i

    # ------------------------------------------------------------------
    # Simplify: push nodes onto the colorable stack.
    # ------------------------------------------------------------------
    # All per-node hot state is dense lists indexed by id (ids are
    # bounded by ``nxt``; subgraphs keep parent ids, so the lists may
    # have holes).  ``deg_arr`` is seeded from the graph's incrementally
    # maintained degree cache, ``rank`` is its memoized dense rank view,
    # and ``prio`` is filled only for nodes whose *initial* degree
    # reaches k -- degrees only ever decrease, so no other node can
    # enter the spill heap.
    size = nxt
    deg_arr: List[int] = [0] * size
    prio: List[float] = [0.0] * size
    node_color: List[int] = [-1] * size
    dyn_pref: List[int] = [-1] * size

    precolored_mask = 0
    for i, ci in precolored_ids.items():
        node_color[i] = ci
        precolored_mask |= 1 << i
    n_dyn = 0
    for i, ci in pref_seed:
        dyn_pref[i] = ci
        n_dyn += 1

    # ``in_play`` replaces the remaining-node bitmask with list flags:
    # the simplify loop tests membership once per heap pop and once per
    # neighbour decrement, and list indexing beats a big-int shift at
    # both sites.  ``n_remaining`` carries the loop condition.
    in_play: List[int] = [0] * size
    n_remaining = 0
    stack: List[int] = []
    spilled: Set[str] = set()
    priorities_get = priorities.get
    nbrs = graph.neighbor_ids()

    if spill_heuristic == "cost":

        def spill_metric(i: int, degree: int) -> float:
            return math.inf if never_mask >> i & 1 else prio[i]

    elif spill_heuristic == "degree":

        def spill_metric(i: int, degree: int) -> float:
            return math.inf if never_mask >> i & 1 else -max(degree, 1)

    else:

        def spill_metric(i: int, degree: int) -> float:
            if never_mask >> i & 1:
                return math.inf
            return prio[i] / max(degree, 1)

    # Ranks replace name comparisons: rank(v) is v's position in the
    # graph's sorted name list, so (degree, rank) orders exactly like
    # (degree, name) did -- only undecided nodes ever meet in a heap, and
    # global ranks restricted to them are order-isomorphic to their own
    # sorted positions.  Ranks are unique, so later tuple elements never
    # tie-break.  The rank table is memoized on the graph across recolor
    # rounds and phases; ``rank`` is its dense list view.
    rank = graph.name_rank_array()
    _, id_of_rank = graph.name_ranks()

    # Two lazy heaps drive node selection: ``low_heap`` orders the
    # trivially-colorable nodes by (degree, rank), ``spill_heap`` orders
    # the constrained (degree >= k) nodes by (spill metric, rank).  Entries
    # go stale when a degree drops; a fresh entry is pushed on every
    # decrement, so an entry is valid exactly when its recorded degree
    # matches the current one.  Nodes below k never need a spill entry: a
    # node whose degree is < k always has a valid low_heap entry, so the
    # spill pick -- which runs only when no such entry exists -- can never
    # select it.  Pop order is lowest (degree, rank) among sub-k nodes,
    # else lowest (metric, rank) overall, at O(log) per operation.
    low_heap: List[Tuple[int, int]] = []
    spill_heap: List[Tuple[float, int, int]] = []
    for i, d in graph.degree_map().items():
        deg_arr[i] = d
        if precolored_mask >> i & 1:
            continue
        in_play[i] = 1
        n_remaining += 1
        if d < k:
            low_heap.append((d, rank[i]))
        else:
            prio[i] = priorities_get(names[i], 0.0)
            spill_heap.append((spill_metric(i, d), rank[i], d))
    heapq.heapify(low_heap)
    heapq.heapify(spill_heap)

    heappush = heapq.heappush

    if spill_heuristic == "cost_over_degree":
        # The default heuristic, specialized with the metric inlined:
        # the decrement loop runs once per (node, neighbour) edge and a
        # closure call per spill push is measurable there.  Same floats
        # as ``spill_metric`` (``d >= k`` here, so ``max(d, 1)`` keeps
        # the k == 0 corner identical).
        inf = math.inf

        def decrement_neighbors(i: int) -> None:
            # Out-of-play neighbours (popped, spilled or precolored) skip
            # the decrement entirely: their ``deg_arr`` slot is never read
            # again -- validity checks and spill metrics only consult
            # remaining nodes.
            for other in nbrs[i]:
                if in_play[other]:
                    d = deg_arr[other] = deg_arr[other] - 1
                    if d < k:
                        heappush(low_heap, (d, rank[other]))
                    elif never_mask >> other & 1:
                        heappush(spill_heap, (inf, rank[other], d))
                    else:
                        heappush(
                            spill_heap,
                            (prio[other] / max(d, 1), rank[other], d),
                        )

    else:

        def decrement_neighbors(i: int) -> None:
            for other in nbrs[i]:
                if in_play[other]:
                    d = deg_arr[other] = deg_arr[other] - 1
                    if d < k:
                        heappush(low_heap, (d, rank[other]))
                    else:
                        heappush(
                            spill_heap,
                            (spill_metric(other, d), rank[other], d),
                        )

    heappop = heapq.heappop
    while n_remaining:
        if budget is not None:
            budget.charge(1, "simplify")
        var = -1
        while low_heap:
            d, r = heappop(low_heap)
            v = id_of_rank[r]
            if in_play[v] and deg_arr[v] == d:
                var = v
                break
        if var < 0:
            # All remaining nodes have >= k conflicts: pick the least
            # valuable as the next (potential) spill.  Every remaining
            # >= k node keeps at least one valid entry (a fresh one is
            # pushed on each decrement), so running the heap dry means
            # the invariant broke -- raise the classified error rather
            # than a bare IndexError so the degradation ladder can act.
            while spill_heap:
                _, r, d = heappop(spill_heap)
                v = id_of_rank[r]
                if in_play[v] and deg_arr[v] == d:
                    var = v
                    break
            if var < 0:
                raise ColoringInvariantError(
                    f"spill heap exhausted with {n_remaining} uncolored "
                    "nodes remaining -- graph degree/neighbour caches "
                    "are inconsistent"
                )
            if pessimistic and not never_mask >> var & 1:
                spilled.add(names[var])
                in_play[var] = 0
                n_remaining -= 1
                decrement_neighbors(var)
                continue
        in_play[var] = 0
        n_remaining -= 1
        stack.append(var)
        decrement_neighbors(var)

    # ------------------------------------------------------------------
    # Select: pop and color.
    # ------------------------------------------------------------------
    # Seed the reuse list in sorted color order: ``_pick`` returns the
    # first non-forbidden entry, so the list order is outcome-relevant and
    # must not inherit the caller's dict iteration order.
    used: List[int] = []
    used_mask = 0
    if precolored:
        for color in sorted(set(precolored.values())):
            ci = cids[color]
            if not used_mask >> ci & 1:
                used.append(ci)
                used_mask |= 1 << ci

    # Both scans walk the cached neighbour-id list against the dense
    # color arrays instead of intersecting big-int masks: by select time
    # most neighbours are assigned, so the mask walk decoded nearly every
    # bit anyway, and two list reads per neighbour are cheaper than a
    # shift-and-bit_length per set bit.  ``node_color[n] >= 0`` is exactly
    # "assigned" (precolored or taken).
    def forbidden_for(i: int) -> int:
        out = 0
        for other in nbrs[i]:
            ci = node_color[other]
            if ci >= 0:
                out |= 1 << ci
        return out

    def neighbour_pref_colors(i: int) -> int:
        if not n_dyn:  # nothing to avoid, skip the scan
            return 0
        out = 0
        for other in nbrs[i]:
            if node_color[other] < 0:
                ci = dyn_pref[other]
                if ci >= 0:
                    out |= 1 << ci
        return out

    def fresh_color(forbidden: int) -> int:
        if len(used) >= k:
            return -1
        for ci in color_order_ids:
            if not used_mask >> ci & 1 and not forbidden >> ci & 1:
                return ci
        return -1

    def pick(forbidden: int) -> int:
        for ci in used:
            if not forbidden >> ci & 1:
                return ci
        return -1

    take_order: List[int] = []

    def take(i: int, ci: int) -> None:
        nonlocal used_mask, n_dyn
        node_color[i] = ci
        take_order.append(i)
        if not used_mask >> ci & 1:
            used.append(ci)
            used_mask |= 1 << ci
        for p in partner_sorted.get(i, ()):
            if node_color[p] < 0 and dyn_pref[p] < 0:
                dyn_pref[p] = ci
                n_dyn += 1

    order: List[str] = []
    while stack:
        var = stack.pop()
        order.append(names[var])
        forbidden = forbidden_for(var)

        # 1. Explicit local preference wins when available.
        pref = dyn_pref[var]
        if pref >= 0 and not forbidden >> pref & 1:
            if used_mask >> pref & 1 or len(used) < k:
                take(var, pref)
                if trace_hook is not None:
                    trace_hook(names[var], cnames[pref], "local")
                continue

        # 2. A partner's color, when one is already colored.  Partner
        # lists are pre-sorted by name: the first assignable hit is taken.
        plist = partner_sorted.get(var)
        if plist:
            chosen = -1
            for p in plist:
                ci = node_color[p]
                if ci >= 0 and not forbidden >> ci & 1:
                    chosen = ci
                    break
            if chosen >= 0:
                take(var, chosen)
                if trace_hook is not None:
                    trace_hook(names[var], cnames[chosen], "partner")
                continue

        avoid = neighbour_pref_colors(var)

        # 3. Boundary globals try for a color distinct from all used ones.
        if boundary_mask >> var & 1:
            color = fresh_color(forbidden | avoid)
            if color < 0:
                color = fresh_color(forbidden)
            if color >= 0:
                take(var, color)
                continue

        # 4. Reuse an existing color, avoiding neighbours' preferences.
        color = pick(forbidden | avoid)
        if color < 0:
            color = fresh_color(forbidden | avoid)
        # 5. "Revert to standard coloring": ignore preference avoidance.
        if color < 0:
            color = pick(forbidden)
        if color < 0:
            color = fresh_color(forbidden)

        if color >= 0:
            take(var, color)
        else:
            if never_mask >> var & 1:
                name = names[var]
                raise NoColorForRequiredNode(
                    f"node {name!r} has infinite spill cost but no color",
                    name,
                )
            spilled.add(names[var])

    # Materialize the string result: precolored entries first, then takes
    # in pop order -- the same insertion order as before.
    assignment: Dict[str, str] = dict(precolored)
    for i in take_order:
        assignment[names[i]] = cnames[node_color[i]]

    return ColoringResult(
        assignment=assignment,
        spilled=spilled,
        used_colors=[cnames[ci] for ci in used],
        stack_order=order,
    )


def verify_coloring(
    graph: InterferenceGraph, assignment: Mapping[str, str]
) -> List[Tuple[str, str]]:
    """Conflicting node pairs that share a color (empty list == valid)."""
    bad = []
    for a, b in graph.edges():
        ca, cb = assignment.get(a), assignment.get(b)
        if ca is not None and ca == cb:
            bad.append((a, b))
    return bad
