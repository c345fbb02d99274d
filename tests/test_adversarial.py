"""The adversarial corpus and its survival contract:

* every generator is seed-reproducible (same seed -> bit-identical
  program or source, hypothesis-checked);
* every IR family emits *valid* functions that an unbudgeted allocator
  completes -- the corpus is hostile, not malformed;
* each family actually exhibits its advertised pathology (tall tile
  trees, irreducible tiles, dense interference with spills);
* under governance the whole corpus completes, degrades, or is rejected
  with a classified error -- no uncaught exception escapes, no pass
  hangs, and a same-fuel rerun reproduces every outcome;
* MiniLang depth attacks get a classified ``MiniLangError`` from the
  parser's depth limit, shallow nests still compile.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import BatchConfig, BatchEngine
from repro.core import HierarchicalAllocator
from repro.ir.printer import format_function
from repro.ir.validate import validate_function
from repro.machine.target import Machine
from repro.minilang import compile_source
from repro.minilang.lexer import MiniLangError
from repro.minilang.parser import MAX_PARSE_DEPTH
from repro.pipeline import Workload
from repro.tiles.construction import build_tile_tree
from repro.workloads.adversarial import (
    FAMILIES,
    adversarial_corpus,
    deep_loop_nest,
    deep_minilang_source,
    high_degree_clique,
    irreducible_mesh,
    spill_churn,
)

MACHINE = Machine.simple(8)
SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSeedReproducibility:
    @COMMON
    @given(seed=SEEDS)
    def test_ir_generators_are_pure_functions_of_their_seed(self, seed):
        for gen, kwargs in (
            (deep_loop_nest, {"depth": 6}),
            (irreducible_mesh, {"size": 6}),
            (high_degree_clique, {"width": 10}),
            (spill_churn, {"phases": 3, "width": 4}),
        ):
            first = format_function(gen(seed, **kwargs))
            second = format_function(gen(seed, **kwargs))
            assert first == second, gen.__name__

    @COMMON
    @given(seed=SEEDS)
    def test_minilang_source_is_reproducible(self, seed):
        assert deep_minilang_source(seed, depth=30) == deep_minilang_source(
            seed, depth=30
        )

    def test_corpus_is_reproducible_and_covers_every_family(self):
        first, second = adversarial_corpus(7), adversarial_corpus(7)
        assert [c.name for c in first] == [c.name for c in second]
        for a, b in zip(first, second):
            if a.fn is not None:
                assert format_function(a.fn) == format_function(b.fn)
            else:
                assert a.source == b.source
        assert {c.family for c in first} == set(FAMILIES)

    def test_distinct_seeds_give_distinct_corpora(self):
        names_a = [c.name for c in adversarial_corpus(1)]
        names_b = [c.name for c in adversarial_corpus(2)]
        assert names_a != names_b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            deep_loop_nest(0, depth=0)
        with pytest.raises(ValueError):
            irreducible_mesh(0, size=2)
        with pytest.raises(ValueError):
            high_degree_clique(0, width=1)
        with pytest.raises(ValueError):
            spill_churn(0, phases=1)
        with pytest.raises(ValueError):
            deep_minilang_source(0, depth=0)
        with pytest.raises(ValueError):
            adversarial_corpus(0, scale=0)


class TestFamilyPathologies:
    def test_ir_cases_are_valid_and_allocatable_unbudgeted(self):
        for case in adversarial_corpus(5):
            if case.fn is None:
                continue
            validate_function(case.fn)
            outcome = HierarchicalAllocator().allocate(case.fn, MACHINE)
            assert outcome.fn is not None, case.name

    def test_deep_nest_builds_a_tall_tile_tree(self):
        tree = build_tile_tree(deep_loop_nest(3, depth=12))
        assert tree.height() >= 12

    def test_mesh_produces_an_irreducible_tile(self):
        tree = build_tile_tree(irreducible_mesh(3, size=8))
        assert "irreducible" in {t.kind for t in tree.preorder()}

    def test_clique_forces_spills_at_eight_registers(self):
        outcome = HierarchicalAllocator().allocate(
            high_degree_clique(3, width=32), MACHINE
        )
        assert outcome.stats.spilled_vars

    def test_churn_forces_spills_at_eight_registers(self):
        outcome = HierarchicalAllocator().allocate(
            spill_churn(3, phases=8, width=8), MACHINE
        )
        assert outcome.stats.spilled_vars


class TestMiniLangDepthAttack:
    def test_shallow_nest_compiles(self):
        fn = compile_source(deep_minilang_source(1, depth=20))
        assert len(fn.blocks) > 20

    def test_deep_nest_is_rejected_classified(self):
        with pytest.raises(MiniLangError, match="depth limit"):
            compile_source(
                deep_minilang_source(1, depth=MAX_PARSE_DEPTH + 40)
            )

    def test_corpus_marks_the_rejecting_case(self):
        cases = [
            c for c in adversarial_corpus(9) if c.family == "minilang_nest"
        ]
        assert {c.expect_reject for c in cases} == {True, False}


def _outcome(result):
    """What a same-fuel rerun must reproduce for one function."""
    record = result.record
    return (
        result.name,
        result.degraded,
        result.fallback_allocator,
        result.error.error_class if result.error else None,
        record.allocated_sha256 if record else None,
    )


class TestGovernedSurvival:
    #: Fuel per allocation: the mesh family completes well under this,
    #: the clique family exhausts it.
    FUEL = 1000
    #: On ``estimate_cost``: admits the mesh (~330) and the clique
    #: (~2,600), refuses the deep-nest (~6,100) and churn (~7,100)
    #: families.
    ADMISSION_LIMIT = 5000
    #: A governed pass over the three corpora takes about a second, so
    #: minutes means a hang, not a slow machine.
    WALL_CEILING_S = 120.0

    def test_whole_corpus_survives_a_tight_budget(self):
        """Governed engine, hostile module: every IR case of three
        corpora completes, degrades on fuel or is rejected at admission,
        with no uncaught exception and no hang; a second fresh engine at
        the same fuel reproduces every outcome; each MiniLang case
        compiles or is rejected with ``MiniLangError``, as its
        ``expect_reject`` says."""
        corpus = [c for seed in (11, 23, 47) for c in adversarial_corpus(seed)]
        workloads = [
            Workload(c.fn, {"n": 5}, {}, name=c.name)
            for c in corpus
            if c.fn is not None
        ]
        config = BatchConfig(
            batch_workers=0, on_error="degrade",
            max_fuel=self.FUEL, admission_limit=self.ADMISSION_LIMIT,
        )
        passes = []
        for _ in range(2):
            start = time.monotonic()
            with BatchEngine(batch=config) as engine:
                passes.append(engine.allocate_module(workloads))
            assert time.monotonic() - start < self.WALL_CEILING_S
        module, again = passes
        assert all(r.ok for r in module.results)
        # The corpus is calibrated to exercise every governed outcome,
        # and no other failure.
        assert {
            r.error.error_class if r.error else None for r in module.results
        } == {None, "budget", "admission"}
        assert module.stats.rejected > 0
        assert module.stats.degraded_by_budget > 0
        assert [_outcome(r) for r in module.results] == [
            _outcome(r) for r in again.results
        ]

        for case in corpus:
            if case.fn is not None:
                continue
            if case.expect_reject:
                with pytest.raises(MiniLangError):
                    compile_source(case.source)
            else:
                compile_source(case.source)
