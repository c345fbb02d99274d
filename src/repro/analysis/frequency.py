"""Block and edge execution probabilities.

All of the paper's spill analysis "is based on the probability of being in a
particular basic block or flowing along a particular control flow edge"
(``Prob(b)`` and ``Prob(e)`` in section 4), and "profiling information can be
trivially incorporated".  This module provides both sources:

* :func:`estimate_frequencies` -- a static estimator.  Branch arms split
  probability evenly except that loop back edges receive
  ``LOOP_BACK_PROB``, giving the conventional expected trip count of 10;
  block frequencies are then the exact expected visit counts of the
  resulting Markov chain, solved as a sparse-ish linear system.
* :func:`frequencies_from_profile` -- exact frequencies from simulator
  :class:`~repro.machine.simulator.Profile` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy

from repro.analysis.loops import build_loop_forest
from repro.ir.function import Function

#: Probability of taking a loop back edge (expected trip count of 10).
LOOP_BACK_PROB = 0.9

#: Probability floor/damping keeping the chain absorbing even for loops the
#: static view believes are exitless.
_DAMPING = 1e-9


@dataclass
class FrequencyInfo:
    """Execution frequency estimates for one function.

    ``block_freq[b]`` is the paper's ``Prob(b)`` and ``edge_freq[(u, v)]``
    its ``Prob(e)`` -- expected executions per entry of the function (the
    paper's "probability" is relative frequency; using expected counts
    keeps loop bodies weighted more than their surroundings, which is what
    the spill formulas need).
    """

    block_freq: Dict[str, float]
    edge_freq: Dict[Tuple[str, str], float]
    source: str = "static"

    def prob_block(self, label: str) -> float:
        return self.block_freq.get(label, 0.0)


def _branch_probabilities(fn: Function) -> Dict[Tuple[str, str], float]:
    """Static per-edge transition probabilities.

    At a multi-way branch inside a loop, arms that remain in the block's
    innermost loop collectively receive :data:`LOOP_BACK_PROB` (loop
    continuation) and arms that leave it share the rest, which yields the
    conventional expected trip count of ``1 / (1 - LOOP_BACK_PROB)``.
    Branches with no loop-exit distinction split evenly.
    """
    forest = build_loop_forest(fn)
    probs: Dict[Tuple[str, str], float] = {}
    for label, block in fn.blocks.items():
        succs = block.succ_labels
        if not succs:
            continue
        if len(succs) == 1:
            probs[(label, succs[0])] = 1.0
            continue
        loop = forest.innermost_loop(label)
        staying = [
            s for s in succs if loop is not None and s in loop.blocks
        ]
        weights: List[float] = []
        if staying and len(staying) < len(succs):
            for s in succs:
                if s in staying:
                    weights.append(LOOP_BACK_PROB / len(staying))
                else:
                    weights.append(
                        (1.0 - LOOP_BACK_PROB) / (len(succs) - len(staying))
                    )
        else:
            weights = [1.0 / len(succs)] * len(succs)
        for s, w in zip(succs, weights):
            probs[(label, s)] = probs.get((label, s), 0.0) + w
    return probs


def estimate_frequencies(fn: Function) -> FrequencyInfo:
    """Expected visit counts assuming the static branch model.

    Solves ``f = e_start + P^T f`` restricted to reachable blocks, where
    ``P`` is the transition matrix (stop is absorbing).  This is exact for
    the assumed probabilities, handles arbitrary reducible and irreducible
    control flow, and needs no heuristics beyond the branch model.
    """
    labels = fn.rpo()
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    probs = _branch_probabilities(fn)

    # f = e + P^T f  =>  (I - P^T) f = e
    matrix = numpy.eye(n)
    for (u, v), p in probs.items():
        if u in index and v in index and u != fn.stop_label:
            matrix[index[v], index[u]] -= p * (1.0 - _DAMPING)
    rhs = numpy.zeros(n)
    rhs[index[fn.start_label]] = 1.0
    try:
        freq = numpy.linalg.solve(matrix, rhs)
    except numpy.linalg.LinAlgError:  # pragma: no cover - damped, singularity unlikely
        freq, *_ = numpy.linalg.lstsq(matrix, rhs, rcond=None)

    block_freq = {label: max(float(freq[index[label]]), 0.0) for label in labels}
    edge_freq = {
        (u, v): block_freq.get(u, 0.0) * p
        for (u, v), p in probs.items()
        if u in index
    }
    return FrequencyInfo(block_freq, edge_freq, source="static")


def frequencies_from_profile(fn: Function, profile) -> FrequencyInfo:
    """Frequencies from measured execution counts.

    Counts are normalized by the number of function entries so they are
    comparable with :func:`estimate_frequencies` output.
    """
    entries = max(profile.block_counts.get(fn.start_label, 1), 1)
    block_freq = {
        label: profile.block_counts.get(label, 0) / entries
        for label in fn.blocks
    }
    edge_freq = {
        (u, v): count / entries for (u, v), count in profile.edge_counts.items()
    }
    # Edges never taken still need an entry so spill placement can reason
    # about them (zero cost -- ideal spill locations).
    for u, v in fn.edges():
        edge_freq.setdefault((u, v), 0.0)
    return FrequencyInfo(block_freq, edge_freq, source="profile")


def loop_depth_weights(fn: Function, base: float = 10.0) -> Dict[str, float]:
    """The textbook ``base**depth`` weighting, exposed for comparison
    benches (Chaitin's original spill-cost estimate)."""
    forest = build_loop_forest(fn)
    return {
        label: base ** forest.loop_depth(label) for label in fn.blocks
    }
