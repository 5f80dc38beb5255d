"""Out-of-order processor model (Johnson-style, paper Figures 3-4)."""

from .branch import BranchPredictor
from .config import ProcessorConfig
from .lsu import LoadStoreUnit, MemOp
from .processor import Processor
from .rob import Operand, ReorderBuffer, RobEntry
from .units import AluUnit, BranchUnit

__all__ = [
    "AluUnit",
    "BranchPredictor",
    "BranchUnit",
    "LoadStoreUnit",
    "MemOp",
    "Operand",
    "Processor",
    "ProcessorConfig",
    "ReorderBuffer",
    "RobEntry",
]
