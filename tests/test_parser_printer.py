"""Round-trip and error tests for the textual IR format."""

import pytest

from repro.ir import format_function, format_instr, parse_function
from repro.ir.instructions import Instr, Opcode
from repro.ir.parser import IRParseError
from repro.ir.validate import IRValidationError, validate_function
from repro.machine.calls import lower_calls
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.workloads.callsites import make_caller
from repro.workloads.kernels import cond_sum, dot, matmul
from repro.workloads.generators import random_program


class TestFormatInstr:
    @pytest.mark.parametrize(
        "instr,text",
        [
            (Instr(Opcode.CONST, defs=("x",), imm=3), "x = const 3"),
            (Instr(Opcode.COPY, defs=("x",), uses=("y",)), "x = copy y"),
            (Instr(Opcode.ADD, defs=("x",), uses=("a", "b")), "x = add a, b"),
            (Instr(Opcode.NEG, defs=("x",), uses=("a",)), "x = neg a"),
            (Instr(Opcode.LOAD, defs=("x",), uses=("i",), imm="A"), "x = load A[i]"),
            (Instr(Opcode.STORE, uses=("i", "v"), imm="A"), "store A[i], v"),
            (Instr(Opcode.BR), "br"),
            (Instr(Opcode.CBR, uses=("c",)), "cbr c"),
            (Instr(Opcode.RET, uses=("v",)), "ret v"),
            (Instr(Opcode.RET), "ret"),
            (Instr(Opcode.NOP), "nop"),
            (
                Instr(Opcode.SPILL_ST, uses=("R1",), imm="slot:v"),
                "spillst [slot:v], R1",
            ),
            (
                Instr(Opcode.SPILL_LD, defs=("R1",), imm="slot:v"),
                "R1 = spillld [slot:v]",
            ),
        ],
    )
    def test_formats(self, instr, text):
        assert format_instr(instr) == text


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [dot, cond_sum, matmul])
    def test_kernel_round_trip(self, factory):
        fn = factory()
        text = format_function(fn)
        back = parse_function(text)
        validate_function(back)
        assert format_function(back) == text

    def test_random_round_trip_behaviour(self):
        fn = random_program(3)
        back = parse_function(format_function(fn))
        args = {p: 5 for p in fn.params}
        a = simulate(fn, args=args, arrays={"A": [1, 2, 3, 4, 5, 6, 7, 8]})
        b = simulate(back, args=args, arrays={"A": [1, 2, 3, 4, 5, 6, 7, 8]})
        assert a.returned == b.returned

    def test_call_clobbers_round_trip(self):
        """Linkage lowering marks each call's caller-save clobbers; the
        canonical text must carry them, or an allocator working from the
        parsed-back text keeps values in clobbered registers."""
        fn = lower_calls(make_caller(2), Machine.with_linkage(8))
        text = format_function(fn)
        back = parse_function(text)
        assert format_function(back) == text

        def clobbers(f):
            return [i.clobbers for b in f for i in b.instrs if i.clobbers]

        assert clobbers(back) == clobbers(fn)
        assert len(clobbers(back)) == 2

    def test_bare_call_with_clobbers(self):
        text = (
            "func f(x) start=a stop=b\n"
            "a:\n  call g(x) clobbers R1, R2\n  ret\n  -> b\nb:\n"
        )
        call = parse_function(text).blocks["a"].instrs[0]
        assert call.defs == () and call.uses == ("x",)
        assert call.clobbers == ("R1", "R2")
        assert format_instr(call) == "call g(x) clobbers R1, R2"

    def test_dot_executes_after_round_trip(self):
        back = parse_function(format_function(dot()))
        result = simulate(
            back, args={"n": 3}, arrays={"A": [1, 2, 3], "B": [4, 5, 6]}
        )
        assert result.returned == (32,)


class TestClobberValidation:
    @pytest.mark.parametrize(
        "instr,message",
        [
            (
                Instr(Opcode.ADD, defs=("y",), uses=("x", "x"),
                      clobbers=("R1",)),
                "only calls clobber",
            ),
            (
                Instr(Opcode.CALL, defs=("y",), uses=("x",), imm="g",
                      clobbers=("R1", "x")),
                "not physical registers",
            ),
        ],
    )
    def test_bad_clobbers_rejected(self, instr, message):
        """Only a call may clobber, and only physical registers (the
        parser accepts any name after ``clobbers``; the service validates
        client text with this check)."""
        fn = parse_function(
            "func f(x) start=a stop=b\na:\n  ret x\n  -> b\nb:\n"
        )
        fn.blocks["a"].instrs.insert(0, instr)
        with pytest.raises(IRValidationError, match=message):
            validate_function(fn)


class TestParserErrors:
    def test_empty_input(self):
        with pytest.raises(IRParseError):
            parse_function("")

    def test_bad_header(self):
        with pytest.raises(IRParseError):
            parse_function("function f()")

    def test_instruction_outside_block(self):
        text = "func f() start=a stop=b\nx = const 1\n"
        with pytest.raises(IRParseError):
            parse_function(text)

    def test_missing_stop(self):
        text = "func f() start=a stop=b\na:\n  ret\n"
        with pytest.raises(IRParseError):
            parse_function(text)

    def test_unknown_opcode(self):
        text = "func f() start=a stop=b\na:\n  x = warp y\n  -> b\nb:\n"
        with pytest.raises(ValueError):
            parse_function(text)

    def test_comments_ignored(self):
        text = (
            "func f() start=a stop=b\n"
            "# a comment\n"
            "a:\n  x = const 1\n  ret x\n  -> b\nb:\n"
        )
        fn = parse_function(text)
        assert len(fn.blocks["a"].instrs) == 2
