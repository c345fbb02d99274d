"""Tile and tile-tree data structures.

A *tile* is a set of basic blocks; a *tile tree* is a collection of tiles
covering the program where any two tiles are disjoint or nested (paper
section 2).  ``blocks(t)`` -- the blocks belonging to *t* but to none of its
children -- is the level at which tile *t* itself operates: its references,
its conflict graph, its spill decisions.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class Tile:
    """One node of a tile tree.

    Attributes:
        tid: stable integer id (creation order; root is 0 after building).
        all_blocks: every block label contained in this tile, including
            those owned by descendant tiles.
        parent / children: tree links.
        kind: provenance tag -- ``"root"``, ``"body"``, ``"loop"``,
            ``"cond"`` (conditional/SESE region) or ``"irreducible"``;
            informational only.
        header: for loop tiles, the loop-top block label.
    """

    _ids = itertools.count()

    def __init__(
        self,
        all_blocks: Iterable[str],
        kind: str = "cond",
        header: Optional[str] = None,
    ) -> None:
        self.tid = next(Tile._ids)
        self.all_blocks: Set[str] = set(all_blocks)
        self.parent: Optional["Tile"] = None
        self.children: List["Tile"] = []
        self.kind = kind
        self.header = header

    def own_blocks(self) -> Set[str]:
        """The paper's ``blocks(t)``: members of *t* not in any child."""
        out = set(self.all_blocks)
        for child in self.children:
            out -= child.all_blocks
        return out

    def add_block(self, label: str) -> None:
        """Add *label* to this tile and every ancestor (fix-up helper)."""
        tile: Optional[Tile] = self
        while tile is not None:
            tile.all_blocks.add(label)
            tile = tile.parent

    def depth(self) -> int:
        depth = 0
        tile = self.parent
        while tile is not None:
            depth += 1
            tile = tile.parent
        return depth

    def ancestors(self) -> Iterator["Tile"]:
        tile = self.parent
        while tile is not None:
            yield tile
            tile = tile.parent

    def __contains__(self, label: str) -> bool:
        return label in self.all_blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tile#{self.tid} {self.kind} own={sorted(self.own_blocks())}"
            f" |all|={len(self.all_blocks)}>"
        )


class TileTree:
    """A legal tile tree over one function.

    Holds the root tile, a per-block map to the smallest containing tile
    (the paper's ``t(n)``), and traversal helpers.  The tree owns *labels*
    only; the function itself is shared and may gain fix-up blocks during
    construction (those are registered via :meth:`register_block`).
    """

    def __init__(self, fn, root: Tile) -> None:
        self.fn = fn
        self.root = root
        self._smallest: Dict[str, Tile] = {}
        #: (cfg_version, tid) -> (entry_edges, exit_edges); tiles query
        #: their boundary many times per phase, and each uncached query
        #: walks every CFG edge.
        self._edge_cache: Dict[int, Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]] = {}
        self._edge_cache_version: int = -1
        #: position-indexed incoming-edge map (see :meth:`_edge_positions`);
        #: depends only on the CFG, not on tile membership.
        self._edge_pos_cache: Optional[
            Tuple[Dict[str, List[Tuple[int, str]]], Dict[str, int]]
        ] = None
        self._edge_pos_version: int = -1
        self._rebuild_smallest()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _rebuild_smallest(self) -> None:
        self._smallest.clear()
        for tile in self.preorder():
            for label in tile.own_blocks():
                self._smallest[label] = tile

    def tile_of(self, label: str) -> Tile:
        """The smallest tile containing *label* (paper's ``t(n)``)."""
        return self._smallest[label]

    def register_block(self, label: str, tile: Tile) -> None:
        """Record a newly inserted block as owned by *tile*."""
        tile.add_block(label)
        for child in tile.children:
            child.all_blocks.discard(label)
        self._smallest[label] = tile
        # Tile membership changed: cached boundary classifications are
        # stale even if the CFG version did not move.
        self._edge_cache.clear()
        self._edge_cache_version = -1

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator[Tile]:
        stack = [self.root]
        while stack:
            tile = stack.pop()
            yield tile
            stack.extend(reversed(tile.children))

    def postorder(self) -> Iterator[Tile]:
        result: List[Tile] = []
        stack: List[Tuple[Tile, bool]] = [(self.root, False)]
        while stack:
            tile, expanded = stack.pop()
            if expanded:
                result.append(tile)
            else:
                stack.append((tile, True))
                for child in reversed(tile.children):
                    stack.append((child, False))
        return iter(result)

    def tiles(self) -> List[Tile]:
        return list(self.preorder())

    def renumber(self) -> None:
        """Reassign ``tid`` values to preorder positions (root = 0).

        ``Tile.tid`` comes from a process-global counter, so the absolute
        values depend on how many trees the process has already built.
        Every derived name (``t{tid}.p{i}`` pseudo colors,
        ``ts:{tid}:{color}`` summary variables) embeds the tid, which makes
        allocation results a function of process history rather than of the
        input program alone.  Renumbering to preorder positions makes tids
        -- and therefore every tid-derived name -- a pure function of the
        tile tree's shape, which per-tile memoization
        (:mod:`repro.core.incremental`) and cross-process fingerprint
        comparison both rely on.

        Must run before tid-keyed caches fill; it drops the boundary-edge
        cache itself.
        """
        for i, tile in enumerate(self.preorder()):
            tile.tid = i
        self._edge_cache.clear()
        self._edge_cache_version = -1

    def height(self) -> int:
        """Longest chain of nested tiles (paper's ``h(T)``)."""
        best = 0
        stack = [(self.root, 1)]
        while stack:
            tile, depth = stack.pop()
            best = max(best, depth)
            for child in tile.children:
                stack.append((child, depth + 1))
        return best

    def breadth_profile(self) -> Dict[int, int]:
        """Number of tiles per depth level (parallelism claim, section 6)."""
        out: Dict[int, int] = {}
        stack = [(self.root, 0)]
        while stack:
            tile, depth = stack.pop()
            out[depth] = out.get(depth, 0) + 1
            for child in tile.children:
                stack.append((child, depth + 1))
        return out

    # ------------------------------------------------------------------
    # edge classification (paper section 2)
    # ------------------------------------------------------------------
    def _classified_edges(
        self, tile: Tile
    ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
        """(entry, exit) edges of *tile*, cached per CFG version."""
        version = getattr(self.fn, "cfg_version", None)
        if version is None:
            # Function without cache support: classify uncached.
            return self._classify(tile)
        if version != self._edge_cache_version:
            self._edge_cache.clear()
            self._edge_cache_version = version
        cached = self._edge_cache.get(tile.tid)
        if cached is None:
            cached = self._edge_cache[tile.tid] = self._classify(tile)
        return cached

    def _edge_positions(
        self,
    ) -> Tuple[Dict[str, List[Tuple[int, str]]], Dict[str, int]]:
        """(incoming edges with global positions, outgoing base positions).

        ``in_pos[dst]`` lists ``(position, src)`` for every edge into
        ``dst``; ``out_base[src]`` is the global position of ``src``'s first
        outgoing edge.  Positions follow :meth:`Function.edges` order, so
        classification results sorted by position match an ``fn.edges()``
        scan exactly (duplicate edges keep distinct positions).
        """
        version = getattr(self.fn, "cfg_version", None)
        if (
            self._edge_pos_cache is not None
            and version is not None
            and version == self._edge_pos_version
        ):
            return self._edge_pos_cache
        in_pos: Dict[str, List[Tuple[int, str]]] = {}
        out_base: Dict[str, int] = {}
        pos = 0
        for block in self.fn.blocks.values():
            label = block.label
            out_base[label] = pos
            for succ in block.succ_labels:
                in_pos.setdefault(succ, []).append((pos, label))
                pos += 1
        if version is not None:
            self._edge_pos_cache = (in_pos, out_base)
            self._edge_pos_version = version
        return in_pos, out_base

    def _classify(
        self, tile: Tile
    ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
        """Boundary edges of *tile*, visiting only its members' edges
        (instead of every CFG edge) and restoring ``fn.edges()`` order by
        sorting on global edge positions."""
        members = tile.all_blocks
        in_pos, out_base = self._edge_positions()
        blocks = self.fn.blocks
        tagged_entries: List[Tuple[int, Tuple[str, str]]] = []
        tagged_exits: List[Tuple[int, Tuple[str, str]]] = []
        for label in members:
            for pos, src in in_pos.get(label, ()):
                if src not in members:
                    tagged_entries.append((pos, (src, label)))
            base = out_base.get(label)
            if base is None:
                continue
            for offset, succ in enumerate(blocks[label].succ_labels):
                if succ not in members:
                    tagged_exits.append((base + offset, (label, succ)))
        tagged_entries.sort()
        tagged_exits.sort()
        return (
            [edge for _, edge in tagged_entries],
            [edge for _, edge in tagged_exits],
        )

    def entry_edges(self, tile: Tile) -> List[Tuple[str, str]]:
        """Edges ``(n, m)`` with ``m`` in *tile* and ``n`` outside it
        (cached; do not mutate the returned list)."""
        return self._classified_edges(tile)[0]

    def exit_edges(self, tile: Tile) -> List[Tuple[str, str]]:
        """Edges ``(m, n)`` with ``m`` in *tile* and ``n`` outside it
        (cached; do not mutate the returned list)."""
        return self._classified_edges(tile)[1]

    def boundary_edges(self, tile: Tile) -> List[Tuple[str, str]]:
        entries, exits = self._classified_edges(tile)
        return entries + exits

    def boundary_block_count(self, tile: Tile) -> int:
        """The paper's ``Z_t``: blocks that are destinations of entry edges
        or sources of exit edges of *tile* ("for structured programs, this
        number is 2")."""
        blocks = set()
        for _, dst in self.entry_edges(tile):
            blocks.add(dst)
        for src, _ in self.exit_edges(tile):
            blocks.add(src)
        return len(blocks)

    def __len__(self) -> int:
        return sum(1 for _ in self.preorder())

    def format(self) -> str:
        """Readable ASCII rendering of the tree (tests and examples).

        Iterative like every other traversal here: tile-tree depth is
        input-controlled, so no walk may recurse.
        """
        lines: List[str] = []
        stack: List[Tuple[Tile, int]] = [(self.root, 0)]
        while stack:
            tile, indent = stack.pop()
            own = ",".join(sorted(tile.own_blocks()))
            lines.append(
                "  " * indent
                + f"Tile#{tile.tid}[{tile.kind}] blocks={{{own}}}"
            )
            for child in sorted(
                tile.children, key=lambda t: t.tid, reverse=True
            ):
                stack.append((child, indent + 1))
        return "\n".join(lines)
