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
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int, instr: Branch) -> bool:
        """Predicted direction for the branch at ``pc``."""
        self.predictions += 1
        if instr.predict_taken is not None:
            return instr.predict_taken
        counter = self._counters.get(pc % TABLE_SIZE, 1)
        return counter >= 2

    def period_key(self) -> tuple:
        """The counter table; the two totals move on by themselves
        (:meth:`shift_period`)."""
        return tuple(sorted(self._counters.items()))

    def shift_period(self, predictions: int, mispredictions: int) -> None:
        """Count whole spin periods' predictions and mispredictions."""
        self.predictions += predictions
        self.mispredictions += mispredictions

    def update(self, pc: int, instr: Branch, taken: bool, mispredicted: bool) -> None:
        if mispredicted:
            self.mispredictions += 1
        if instr.predict_taken is not None:
            return
        key = pc % TABLE_SIZE
        counter = self._counters.get(key, 1)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[key] = counter
