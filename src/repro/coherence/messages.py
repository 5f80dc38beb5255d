"""Coherence protocol messages.

All inter-node communication (cache <-> directory) travels as
:class:`Message` objects over the :class:`~repro.memory.interconnect.Interconnect`.
Node identifiers are small integers for caches and the string ``"dir"``
for the directory/memory controller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

NodeId = Union[int, str]

DIRECTORY_NODE: NodeId = "dir"


class MessageKind(enum.Enum):
    # requests (cache -> directory)
    READ = "read"                    # want a shared copy
    READX = "readx"                  # want exclusive ownership + data
    UPGRADE = "upgrade"              # have S, want M (no data needed)
    WRITEBACK = "writeback"          # evicting a dirty line
    UPDATE_WRITE = "update_write"    # update protocol: propagate a write

    # directory -> cache
    DATA = "data"                    # shared fill
    DATA_EXCL = "data_excl"          # exclusive fill (or upgrade ack)
    INVAL = "inval"                  # invalidate your copy
    RECALL = "recall"                # owner: send data back, downgrade to S
    RECALL_INVAL = "recall_inval"    # owner: send data back, invalidate
    UPDATE = "update"                # update protocol: new value for a word
    WB_ACK = "wb_ack"                # writeback acknowledged
    UPDATE_DONE = "update_done"      # update-write performed everywhere

    # cache -> directory acknowledgements
    INVAL_ACK = "inval_ack"
    RECALL_ACK = "recall_ack"        # carries data
    UPDATE_ACK = "update_ack"

    # uncached accesses (Appendix A): performed atomically at the home
    UNCACHED_OP = "uncached_op"
    UNCACHED_DONE = "uncached_done"


@dataclass
class Message:
    """One protocol message.

    ``txn`` ties responses back to the transaction that triggered them.
    ``data`` is a full line (list of words) on fills/recalls; ``addr``
    and ``value`` are used by the word-granular update protocol.
    """

    kind: MessageKind
    src: NodeId
    dst: NodeId
    line_addr: int
    txn: int = -1
    data: Optional[List[int]] = None
    addr: Optional[int] = None
    value: Optional[int] = None
    #: UNCACHED_OP payload: "load" | "store" | "rmw", plus the RMW op
    uncached_kind: Optional[str] = None
    rmw_op: Optional[str] = None

    def describe(self) -> str:
        return (
            f"{self.kind.value} line={self.line_addr:#x} {self.src}->{self.dst}"
            + (f" txn={self.txn}" if self.txn >= 0 else "")
        )
