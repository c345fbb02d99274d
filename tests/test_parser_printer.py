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


class TestStructuralValidation:
    def _fn(self):
        return parse_function(
            "func f(x) start=a stop=b\na:\n  y = neg x\n  ret y\n  -> b\nb:\n"
        )

    def test_dangling_successor_is_a_validation_error(self):
        fn = self._fn()
        fn.blocks["a"].succ_labels = ["nowhere"]
        fn.invalidate_caches()
        with pytest.raises(IRValidationError, match="unknown label 'nowhere'"):
            validate_function(fn)

    @pytest.mark.parametrize(
        "instr",
        [
            Instr(Opcode.ADD, defs=("y",), uses=("x",)),
            Instr(Opcode.COPY, defs=("y",)),
            Instr(Opcode.NEG, defs=("y", "z"), uses=("x",)),
            Instr(Opcode.STORE, uses=("x",), imm="A"),
            Instr(Opcode.SPILL_LD, defs=("y",), uses=("x",), imm="s"),
        ],
        ids=["add_one_use", "copy_no_use", "neg_two_defs", "store_one_use",
             "spillld_with_use"],
    )
    def test_operand_counts_checked(self, instr):
        fn = self._fn()
        fn.blocks["a"].instrs.insert(0, instr)
        with pytest.raises(IRValidationError, match="def\\(s\\) and"):
            validate_function(fn)

    @pytest.mark.parametrize("imm", ["s", None, (1, 2), float("inf")])
    def test_const_must_be_a_const_literal(self, imm):
        fn = self._fn()
        fn.blocks["a"].instrs.insert(
            0, Instr(Opcode.CONST, defs=("y",), imm=imm)
        )
        with pytest.raises(IRValidationError, match="const takes"):
            validate_function(fn)

    @pytest.mark.parametrize(
        "instr",
        [
            Instr(Opcode.LOAD, defs=("y",), uses=("x",), imm=3),
            Instr(Opcode.STORE, uses=("x", "x"), imm=None),
            Instr(Opcode.CALL, defs=("y",), uses=("x",), imm=7),
            Instr(Opcode.SPILL_ST, uses=("x",), imm=3),
            Instr(Opcode.SPILL_LD, defs=("y",), imm=("s", 1)),
        ],
        ids=["int_array", "no_array", "int_callee", "int_slot",
             "tuple_slot"],
    )
    def test_names_must_be_strings(self, instr):
        """The parser reads an array, callee or slot back as text, so a
        name of another type would not survive a round trip."""
        fn = self._fn()
        fn.blocks["a"].instrs.insert(0, instr)
        with pytest.raises(IRValidationError, match="with a str, not"):
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

    @pytest.mark.parametrize(
        "body,line",
        [
            ("a:\n  ret\n  -> b\na:\n  -> b\nb:\n", 5),  # duplicate label
            ("a:\n  x = warp y\n  -> b\nb:\n", 3),  # unknown mnemonic
            ("a:\n  x = const [1,\n  -> b\nb:\n", 3),  # not a literal
            ("a:\n  x = copy\n  -> b\nb:\n", 3),  # no operand
            ("a:\n  x = add y\n  -> b\nb:\n", 3),  # one operand
            ("a:\n  x, y = neg z\n  -> b\nb:\n", 3),  # two defs
            ("a:\n  cbr\n  -> b, b\nb:\n", 3),  # no condition
            ("a:\n  x = load A\n  -> b\nb:\n", 3),  # no index
            ("a:\n  retx\n  -> b\nb:\n", 3),  # not ``ret x``
            ("a:\n  cbrc\n  -> b, b\nb:\n", 3),  # not ``cbr c``
        ],
        ids=["duplicate_label", "unknown_mnemonic", "bad_literal",
             "copy_no_operand", "add_one_operand", "neg_two_defs",
             "cbr_no_condition", "load_no_index", "retx", "cbrc"],
    )
    def test_malformed_line_is_a_parse_error_with_its_line(self, body, line):
        with pytest.raises(IRParseError, match=f"^line {line}: "):
            parse_function("func f(y, z) start=a stop=b\n" + body)

    @pytest.mark.parametrize(
        "literal", ["[1, 2]", "{1: 2}", "'s'", "None", "(1, 2)", "1j",
                    "1e999", "-1e999", "b'x'"],
    )
    def test_const_rejects_what_does_not_round_trip(self, literal):
        """``const`` takes the literals the printer, parser and
        simulator all keep; the rest fail at parse time."""
        text = f"func f() start=a stop=b\na:\n  x = const {literal}\n  ret x\n  -> b\nb:\n"
        with pytest.raises(IRParseError, match="^line 3: "):
            parse_function(text)

    @pytest.mark.parametrize("value", [3, -7, True, False, 0.5, -0.0])
    def test_const_literals_round_trip(self, value):
        fn = parse_function(
            f"func f() start=a stop=b\na:\n  x = const {value!r}\n"
            "  ret x\n  -> b\nb:\n"
        )
        imm = fn.blocks["a"].instrs[0].imm
        assert type(imm) is type(value) and repr(imm) == repr(value)
        assert simulate(fn, args={}).returned == (value,)
        assert format_function(parse_function(format_function(fn))) == (
            format_function(fn)
        )

    @pytest.mark.parametrize("slot", ["3", "True", "(1, 2)", "slot:x"])
    def test_spill_slots_round_trip_as_text(self, slot):
        fn = parse_function(
            "func f(x) start=a stop=b\na:\n  ret x\n  -> b\nb:\n"
        )
        fn.blocks["a"].instrs[:0] = [
            Instr(Opcode.SPILL_ST, uses=("x",), imm=slot),
            Instr(Opcode.SPILL_LD, defs=("x",), imm=slot),
        ]
        validate_function(fn)
        back = parse_function(format_function(fn))
        assert [i.imm for i in back.blocks["a"].instrs[:2]] == [slot, slot]
        assert all(type(i.imm) is str for i in back.blocks["a"].instrs[:2])

    def test_comments_ignored(self):
        text = (
            "func f() start=a stop=b\n"
            "# a comment\n"
            "a:\n  x = const 1\n  ret x\n  -> b\nb:\n"
        )
        fn = parse_function(text)
        assert len(fn.blocks["a"].instrs) == 2
