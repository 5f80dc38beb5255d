"""Branch prediction.

Static hints on branch instructions are always honoured — the paper's
lock-spin idiom requires the predictor to "take the path that assumes
the lock synchronization succeeds".  Unhinted branches fall back to a
2-bit saturating counter table keyed by PC (a small BTB-style
structure, per Lee & Smith).
"""

from __future__ import annotations

from ..isa.instructions import Branch
from ..sim.state import Value, reset


#: counter-table entries; PCs alias modulo this size
TABLE_SIZE = 256


class BranchPredictor:
    #: pc -> 0..3 (>= 2 predicts taken); reset: a cold table
    STATE = dict(_counters=Value(dict, copy=dict))

    def __init__(self) -> None:
        reset(self)

    def predict(self, pc: int, instr: Branch) -> bool:
        """Predicted direction for the branch at ``pc``."""
        if instr.predict_taken is not None:
            return instr.predict_taken
        counter = self._counters.get(pc % TABLE_SIZE, 1)
        return counter >= 2

    def update(self, pc: int, instr: Branch, taken: bool) -> None:
        """Train the counter of the branch at ``pc`` on its outcome."""
        if instr.predict_taken is not None:
            return
        key = pc % TABLE_SIZE
        counter = self._counters.get(key, 1)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[key] = counter
