"""How fast the host is running right now, from a fixed reference task.

The hosts this benchmark runs on change speed for tens of seconds at a
time (other tenants share the cores and caches), which moves every timed
metric by 10-20 % between runs while the program stays the same.  A run
therefore samples a fixed pure-Python task -- greedy coloring of a seeded
random graph on dicts and sets, the same kind of work the allocator
does -- between its timed operations, and keeps the fastest sample.
Timed metrics are reported at :data:`NOMINAL_S`, the reference task's
time on a nominal host: a latency is scaled by ``NOMINAL_S / best``, a
rate by its inverse.  The task lives here, with the benchmark, so no
change to the program can move it.
"""

from __future__ import annotations

import random
import time

#: Reference-task seconds on the nominal host.
NOMINAL_S = 0.003


def _task() -> int:
    rng = random.Random(7)
    n = 400
    adj = {i: set() for i in range(n)}
    for _ in range(3000):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    names = {i: f"v{i}" for i in range(n)}
    color = {}
    for v in sorted(adj, key=lambda v: (len(adj[v]), names[v])):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return max(color.values())


class HostSpeed:
    """Fastest reference-task time seen so far."""

    def __init__(self) -> None:
        self.best_s = float("inf")
        self.samples = 0

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            _task()
            self.best_s = min(self.best_s, time.perf_counter() - start)
            self.samples += 1

    @property
    def scale(self) -> float:
        """Factor that brings a time measured now to the nominal host."""
        return NOMINAL_S / self.best_s if self.samples else 1.0
