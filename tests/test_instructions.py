"""Unit tests for the instruction layer."""

import pytest

from repro.ir.instructions import (
    BINARY_OPS,
    Instr,
    Opcode,
    UNARY_OPS,
    eval_binary,
    eval_unary,
    is_phys,
    make_binary,
    make_unary,
    opcode_from_mnemonic,
    phys_index,
    phys_reg,
)


class TestPhysRegNames:
    def test_round_trip(self):
        for i in (0, 1, 7, 31, 128):
            assert phys_index(phys_reg(i)) == i

    def test_is_phys(self):
        assert is_phys("R0")
        assert is_phys("R17")
        assert not is_phys("r0")
        assert not is_phys("R")
        assert not is_phys("Rx")
        assert not is_phys("g1")
        assert not is_phys("R1x")

    def test_phys_index_rejects_non_phys(self):
        with pytest.raises(ValueError):
            phys_index("g1")


class TestInstrBasics:
    def test_defs_uses_are_tuples(self):
        instr = Instr(Opcode.ADD, defs=["d"], uses=["a", "b"])
        assert instr.defs == ("d",)
        assert instr.uses == ("a", "b")

    def test_uids_unique(self):
        a = Instr(Opcode.NOP)
        b = Instr(Opcode.NOP)
        assert a.uid != b.uid

    def test_clone_preserves_uid(self):
        """A cloned block shares its (immutable) instructions, uids and
        all."""
        from repro.ir.basic_block import BasicBlock

        a = Instr(Opcode.ADD, defs=("d",), uses=("a", "b"))
        assert BasicBlock("b", [a]).clone().instrs[0] is a

    def test_replace_preserves_uid(self):
        a = Instr(Opcode.ADD, defs=("d",), uses=("a", "b"))
        b = a.replace(uses=("b", "a"))
        assert (b.op, b.defs, b.uses, b.uid) == (a.op, a.defs, ("b", "a"), a.uid)
        assert a.uses == ("a", "b")

    def test_fields_cannot_be_written(self):
        a = Instr(Opcode.CALL, defs=("d",), uses=("a",), imm="f",
                  clobbers=("R1",))
        for name in ("op", "defs", "uses", "imm", "clobbers", "uid"):
            before = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, before)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is before
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        a = Instr(Opcode.SPILL_LD, defs=("d",), imm="slot:d")
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert (b.op, b.defs, b.uses, b.imm, b.clobbers, b.uid) == (
                a.op, a.defs, a.uses, a.imm, a.clobbers, a.uid
            )

    def test_fresh_clone_changes_uid(self):
        a = Instr(Opcode.ADD, defs=("d",), uses=("a", "b"))
        assert a.fresh_clone().uid != a.uid

    def test_rewrite_maps_defs_and_uses(self):
        a = Instr(Opcode.ADD, defs=("d",), uses=("a", "b"))
        out = a.rewrite(lambda v: v.upper())
        assert out.defs == ("D",)
        assert out.uses == ("A", "B")
        assert out.uid == a.uid

    def test_variables(self):
        a = Instr(Opcode.STORE, uses=("i", "v"), imm="A")
        assert a.variables() == ("i", "v")

    def test_terminator_flags(self):
        assert Instr(Opcode.BR).is_terminator
        assert Instr(Opcode.CBR, uses=("c",)).is_terminator
        assert Instr(Opcode.RET).is_terminator
        assert not Instr(Opcode.ADD, defs=("d",), uses=("a", "b")).is_terminator

    def test_memory_flags(self):
        assert Instr(Opcode.LOAD, defs=("d",), uses=("i",), imm="A").is_memory
        assert Instr(Opcode.SPILL_LD, defs=("d",), imm="s").is_memory
        assert Instr(Opcode.SPILL_ST, uses=("d",), imm="s").is_spill
        assert not Instr(Opcode.ADD, defs=("d",), uses=("a", "b")).is_memory

    def test_copy_like(self):
        assert Instr(Opcode.COPY, defs=("d",), uses=("s",)).is_copy_like
        assert Instr(Opcode.MOVE, defs=("d",), uses=("s",)).is_copy_like
        assert not Instr(Opcode.ADD, defs=("d",), uses=("a", "b")).is_copy_like


class TestConstructors:
    def test_make_binary_validates(self):
        with pytest.raises(ValueError):
            make_binary(Opcode.NEG, "d", "a", "b")

    def test_make_unary_validates(self):
        with pytest.raises(ValueError):
            make_unary(Opcode.ADD, "d", "a")

    def test_make_binary_shape(self):
        instr = make_binary(Opcode.MUL, "d", "a", "b")
        assert instr.op is Opcode.MUL
        assert instr.defs == ("d",)
        assert instr.uses == ("a", "b")


class TestEvaluation:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.ADD, 2, 3, 5),
            (Opcode.SUB, 2, 3, -1),
            (Opcode.MUL, 4, 3, 12),
            (Opcode.DIV, 7, 2, 3),
            (Opcode.DIV, -7, 2, -3),  # truncating division
            (Opcode.DIV, 7, 0, 0),    # defined behaviour on zero
            (Opcode.MOD, 7, 3, 1),
            (Opcode.MOD, 7, 0, 0),
            (Opcode.MIN, 3, -1, -1),
            (Opcode.MAX, 3, -1, 3),
            (Opcode.AND, 1, 0, 0),
            (Opcode.OR, 1, 0, 1),
            (Opcode.CMP_LT, 1, 2, 1),
            (Opcode.CMP_LE, 2, 2, 1),
            (Opcode.CMP_EQ, 2, 2, 1),
            (Opcode.CMP_NE, 2, 2, 0),
            (Opcode.CMP_GT, 3, 2, 1),
            (Opcode.CMP_GE, 1, 2, 0),
        ],
    )
    def test_binary(self, op, a, b, expected):
        assert eval_binary(op, a, b) == expected

    def test_unary(self):
        assert eval_unary(Opcode.NEG, 5) == -5
        assert eval_unary(Opcode.NOT, 0) == 1
        assert eval_unary(Opcode.NOT, 3) == 0

    def test_every_binary_op_evaluable(self):
        for op in BINARY_OPS:
            eval_binary(op, 6, 3)

    def test_every_unary_op_evaluable(self):
        for op in UNARY_OPS:
            eval_unary(op, 6)


class TestMnemonics:
    def test_lookup(self):
        assert opcode_from_mnemonic("add") is Opcode.ADD
        assert opcode_from_mnemonic("cmplt") is Opcode.CMP_LT
        assert opcode_from_mnemonic("spillld") is Opcode.SPILL_LD

    def test_unknown(self):
        with pytest.raises(ValueError):
            opcode_from_mnemonic("frobnicate")
