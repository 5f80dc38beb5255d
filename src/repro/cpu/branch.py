"""Branch prediction.

Static hints on branch instructions are always honoured — the paper's
lock-spin idiom requires the predictor to "take the path that assumes
the lock synchronization succeeds".  Unhinted branches fall back to a
2-bit saturating counter table keyed by PC (a small BTB-style
structure, per Lee & Smith).
"""

from __future__ import annotations

from typing import Dict

from ..isa.instructions import Branch


#: counter-table entries; PCs alias modulo this size
TABLE_SIZE = 256


class BranchPredictor:
    #: what a run never changes, left out of :meth:`period_key`
    PERIOD_FIXED = frozenset()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every branch: a cold table."""
        self._counters: Dict[int, int] = {}  # pc -> 0..3 (>=2 predicts taken)

    def predict(self, pc: int, instr: Branch) -> bool:
        """Predicted direction for the branch at ``pc``."""
        if instr.predict_taken is not None:
            return instr.predict_taken
        counter = self._counters.get(pc % TABLE_SIZE, 1)
        return counter >= 2

    def period_key(self) -> tuple:
        """The counter table."""
        return tuple(sorted(self._counters.items()))

    def update(self, pc: int, instr: Branch, taken: bool) -> None:
        """Train the counter of the branch at ``pc`` on its outcome."""
        if instr.predict_taken is not None:
            return
        key = pc % TABLE_SIZE
        counter = self._counters.get(key, 1)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[key] = counter
