"""Instruction set: instructions, registers, programs, and the assembler."""

from .assembler import assemble
from .interpreter import InterpreterResult, interpret
from .instructions import (
    ALU_OPS,
    RMW_OPS,
    Alu,
    Branch,
    Halt,
    Instruction,
    Jump,
    Load,
    Nop,
    Rmw,
    SoftwarePrefetch,
    Store,
    destination_register,
    rmw_result,
    source_registers,
)
from .program import Program, ProgramBuilder, program_from_instructions
from .registers import NUM_REGS, REGISTER_NAMES, ZERO_REG, RegisterFile, check_register

__all__ = [
    "ALU_OPS",
    "Alu",
    "Branch",
    "Halt",
    "Instruction",
    "InterpreterResult",
    "Jump",
    "Load",
    "NUM_REGS",
    "Nop",
    "Program",
    "ProgramBuilder",
    "REGISTER_NAMES",
    "RMW_OPS",
    "RegisterFile",
    "Rmw",
    "SoftwarePrefetch",
    "Store",
    "ZERO_REG",
    "assemble",
    "check_register",
    "destination_register",
    "interpret",
    "program_from_instructions",
    "rmw_result",
    "source_registers",
]
