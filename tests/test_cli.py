"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import main
from repro.ir import format_function
from repro.workloads.kernels import all_kernel_workloads, dot


@pytest.fixture
def dot_file(tmp_path):
    path = tmp_path / "dot.ir"
    path.write_text(format_function(dot()))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRun:
    def test_executes(self, dot_file):
        code, text = run_cli([
            "run", dot_file, "--arg", "n=4",
            "--array", "A=1,2,3,4", "--array", "B=5,6,7,8",
        ])
        assert code == 0
        assert "returned: (70,)" in text

    def test_profile_flag(self, dot_file):
        code, text = run_cli([
            "run", dot_file, "--arg", "n=2",
            "--array", "A=1,1", "--array", "B=1,1", "--profile",
        ])
        assert code == 0
        assert "block counts:" in text
        assert "body: 2" in text

    def test_bad_arg_format(self, dot_file):
        with pytest.raises(SystemExit):
            run_cli(["run", dot_file, "--arg", "nonsense"])


class TestTiles:
    def test_prints_tree(self, dot_file):
        code, text = run_cli(["tiles", dot_file])
        assert code == 0
        assert "root" in text and "loop" in text
        assert "tiles:" in text


class TestAllocate:
    @pytest.mark.parametrize(
        "allocator", ["hierarchical", "chaitin", "briggs", "local", "naive"]
    )
    def test_all_allocators(self, dot_file, allocator):
        code, text = run_cli([
            "allocate", dot_file, "--allocator", allocator,
            "--registers", "4", "--arg", "n=4",
            "--array", "A=1,2,3,4", "--array", "B=5,6,7,8",
        ])
        assert code == 0
        assert "# returned: (70,)" in text
        assert "verification: PASSED" in text

    def test_profile_guided(self, dot_file):
        code, text = run_cli([
            "allocate", dot_file, "--allocator", "hierarchical",
            "--registers", "3", "--profile-guided",
            "--arg", "n=4", "--array", "A=1,2,3,4", "--array", "B=5,6,7,8",
        ])
        assert code == 0
        assert "# returned: (70,)" in text

    def test_no_verify(self, dot_file):
        code, text = run_cli([
            "allocate", dot_file, "--registers", "4",
            "--arg", "n=1", "--array", "A=3", "--array", "B=3",
            "--no-verify",
        ])
        assert code == 0
        assert "verification" not in text

    def test_output_parses_back(self, dot_file, tmp_path):
        """The allocated program printed by the CLI is valid IR text."""
        from repro.ir import parse_function
        from repro.machine.simulator import simulate

        code, text = run_cli([
            "allocate", dot_file, "--registers", "4",
            "--arg", "n=3", "--array", "A=2,2,2", "--array", "B=3,3,3",
        ])
        ir_text = text.split("# allocator:")[0]
        fn = parse_function(ir_text)
        result = simulate(
            fn,
            args={p: 3 for p in fn.params},
            arrays={"A": [2, 2, 2], "B": [3, 3, 3]},
        )
        assert result.returned == (18,)


#: The allocator stages ``--profile`` attributes time to.
STAGES = ("tile_tree", "context", "phase1", "phase2", "rewrite")


def stage_profile(text):
    """``{stage: call count}`` from the ``# stage profile`` table."""
    _, _, table = text.partition("# stage profile")
    rows = {}
    for line in table.splitlines()[1:]:
        if not line.startswith("#   "):
            break
        name, *_, count = line[1:].split()
        rows[name] = int(count.lstrip("x"))
    return rows


class TestStageProfile:
    def test_allocate_profiles_every_stage(self, dot_file):
        code, text = run_cli([
            "allocate", dot_file, "--registers", "4", "--profile",
            "--arg", "n=4", "--array", "A=1,2,3,4", "--array", "B=5,6,7,8",
        ])
        assert code == 0
        assert stage_profile(text) == {stage: 1 for stage in STAGES}

    @pytest.mark.parametrize("workers", ["0", "1"])
    def test_batch_profile_sums_stages_over_functions(
        self, tmp_path, workers
    ):
        """A pool worker's stage times travel back in
        ``timing["stage_times"]``, so both paths count every stage once
        per function."""
        workloads = all_kernel_workloads(4)[:3]
        for workload in workloads:
            (tmp_path / f"{workload.label()}.ir").write_text(
                format_function(workload.fn)
            )
        code, text = run_cli([
            "batch", str(tmp_path), "--no-simulate", "--profile",
            "--workers", workers,
        ])
        assert code == 0
        assert stage_profile(text) == {
            stage: len(workloads) for stage in STAGES
        }


class TestMiniLangInput:
    ML = (
        "func f(n) {\n"
        "    var s = 0;\n"
        "    var i = 0;\n"
        "    while (i < n) { s = s + A[i]; i = i + 1; }\n"
        "    return s;\n"
        "}\n"
    )

    def test_auto_detected(self, tmp_path):
        path = tmp_path / "sum.ml"
        path.write_text(self.ML)
        code, text = run_cli([
            "run", str(path), "--arg", "n=3", "--array", "A=4,5,6",
        ])
        assert code == 0
        assert "returned: (15,)" in text

    def test_explicit_lang(self, tmp_path):
        path = tmp_path / "sum.ml"
        path.write_text(self.ML)
        code, text = run_cli([
            "allocate", str(path), "--lang", "minilang",
            "--registers", "3", "--arg", "n=3", "--array", "A=4,5,6",
        ])
        assert code == 0
        assert "# returned: (15,)" in text

    def test_tiles_on_minilang(self, tmp_path):
        path = tmp_path / "sum.ml"
        path.write_text(self.ML)
        code, text = run_cli(["tiles", str(path)])
        assert code == 0
        assert "loop" in text


class TestTrace:
    @pytest.fixture
    def figure1_file(self, tmp_path):
        from repro.workloads.figure1 import figure1

        path = tmp_path / "figure1.ir"
        path.write_text(format_function(figure1()))
        return str(path)

    def test_report_shows_metrics_and_cases(self, figure1_file):
        code, text = run_cli(["trace", figure1_file, "--registers", "4"])
        assert code == 0
        assert "## Tile tree" in text
        for column in ("Local_weight", "Transfer", "Weight", "Reg", "Mem"):
            assert column in text
        # All four section-5 cases are named in the case totals line.
        for case in ("spill", "transfer", "reload", "no_change"):
            assert case in text
        assert "Case totals:" in text
        assert "## Counters" in text

    def test_jsonl_output(self, figure1_file, tmp_path):
        import json

        jsonl = tmp_path / "events.jsonl"
        code, text = run_cli([
            "trace", figure1_file, "--registers", "4",
            "--jsonl", str(jsonl),
        ])
        assert code == 0
        lines = jsonl.read_text().strip().splitlines()
        assert lines
        types = {json.loads(line)["type"] for line in lines}
        assert "TileColored" in types and "BoundaryAction" in types

    # The test id predates the removal of ``trace --workers``; the
    # sequential drivers now emit the per-tile rows it checks.
    def test_parallel_with_chrome_and_timings(self, figure1_file, tmp_path):
        import json

        chrome = tmp_path / "timeline.json"
        code, text = run_cli([
            "trace", figure1_file, "--registers", "4",
            "--chrome", str(chrome), "--timings",
        ])
        assert code == 0
        assert "## Stage timings" in text
        assert "phase1 tiles" in text and "phase2 tiles" in text
        doc = json.loads(chrome.read_text())
        tiles = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["cat"] == "tile"]
        phase1 = [e for e in tiles if e["name"].startswith("phase1:")]
        phase2 = [e for e in tiles if e["name"].startswith("phase2:")]
        assert phase1 and len(phase1) == len(phase2)

    def test_trace_does_not_require_inputs(self, figure1_file):
        # Unlike run/allocate, trace only allocates -- no simulation, so
        # no --arg is needed.
        code, text = run_cli(["trace", figure1_file])
        assert code == 0
