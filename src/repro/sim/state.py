"""Run state, declared once per class.

Each class that holds a run's state declares every field it has in its
class attribute ``STATE``, a dict from field name to the field's kind.
:func:`reset` puts a component back in the state construction leaves;
:func:`period_key` keys its state for the spin sleep (two states whose
keys are equal one period apart go on the same way: :meth:`Processor.
next_wake <repro.cpu.processor.Processor.next_wake>`); :func:`renumber`
moves it on by whole periods of such a spin.  A *record*, an entry in a
buffer, is keyed and renumbered, never reset.

All three read the declaration, compiled once per class into functions
that read as hand-written ones would: each kind writes the line that
resets, keys or moves one field (:class:`_Plan`).
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Numbering(NamedTuple):
    """The frame a period key counts in.

    What the last two periods handed out — from ``first`` on — counts
    back from the next number to be handed out, and its cycles from the
    key's ``cycle``: the period after makes the same that much later,
    and what it makes may outlive a period (the branch it resolves was
    decoded the period before).  What is older lives through the period
    (a store draining behind a spin), so it counts as it is.  ``live``
    is the reorder buffer by number, ``requests`` the (id, generation)
    of every cache request whose answer the core still awaits."""

    next_seq: int
    next_req: int
    first: int
    cycle: int
    live: dict
    requests: frozenset

    def __call__(self, seq: int):
        return seq - self.next_seq if seq >= self.first else (seq,)


class Shift(NamedTuple):
    """Whole periods of a spin, as :func:`renumber` applies them: what
    is numbered from ``first`` on moves ``seqs`` instructions, ``reqs``
    request ids and ``cycles`` cycles on; the LRU clock moves ``ticks``
    on, and a line the period touches is restamped to ``base`` plus its
    stamp in ``stamps`` (by line address).  ``seen`` holds what was
    moved already: a record may sit in two buffers."""

    first: int
    seqs: int
    reqs: int
    cycles: int
    ticks: int
    stamps: Dict[int, int]
    base: int
    seen: set


_KEEP: Any = object()

Bind = Callable[[Any], str]


class Kind:
    """How one field is run state.  ``init`` is what a reset makes of
    it: a type to instantiate, a function of the owner, or the value
    itself (none given: the field is kept).  :meth:`key` writes the
    expression that keys the field's value ``v`` (in ``obj``, numbered
    as ``num`` counts), :meth:`move` the lines that move it on by
    ``shift``; ``bind`` names an object for that code to use (``None``:
    a fresh variable)."""

    keyed = True

    def __init__(self, init: Any = _KEEP) -> None:
        self.init = init

    def key(self, v: str, bind: Bind) -> str:
        return v

    def move(self, v: str, bind: Bind) -> List[str]:
        return []


class Fixed(Kind):
    """Wiring a run never changes; with an ``init``, made anew by every
    reset from the run's configuration."""

    keyed = False


FIXED = Fixed()


class Watched(Fixed):
    """Compared by the spin watch itself at its keyed points (the
    cache's message total and due events), or its own state."""


class Value(Kind):
    """Keyed as it is, or as its ``copy`` when it is mutable."""

    def __init__(self, init: Any = None, copy: Optional[Callable] = None):
        super().__init__(init)
        self.copy = copy

    def key(self, v, bind):
        return v if self.copy is None else f"{bind(self.copy)}({v})"


VALUE = Value()


class Keyed(Kind):
    """Keyed by ``function(value, numbering)``: an exception to the
    other kinds, named where it is declared."""

    def __init__(self, function: Callable, init: Any = None) -> None:
        super().__init__(init)
        self.function = function

    def key(self, v, bind):
        return f"{bind(self.function)}({v}, num)"


class Seq(Kind):
    """A sequence number, keyed as the numbering counts it and moved on
    by a period's instructions."""

    def key(self, v, bind):
        return f"num({v})"

    def move(self, v, bind):
        return [f"if {v} >= shift.first: {v} += shift.seqs"]


SEQ = Seq()


class Req(Kind):
    """A cache request id (0: none) of its owner, counted like the
    owner's field ``of`` (none: the next id, always the period's own)
    and moved on by a period's requests."""

    def __init__(self, init: Any = _KEEP, of: Optional[str] = None) -> None:
        super().__init__(init)
        self.of = of

    def _new(self, frame: str) -> str:
        return f"obj.{self.of} >= {frame}.first" if self.of else "True"

    def key(self, v, bind):
        return (f"(None if not {v} else {v} - num.next_req"
                f" if {self._new('num')} else ({v},))")

    def move(self, v, bind):
        return [f"if {v} and {self._new('shift')}: {v} += shift.reqs"]


class Cycle(Kind):
    """A cycle due for the numbered record in its owner's field ``of``,
    if any: counted from the key's cycle like the record's number, moved
    on by a period's cycles."""

    def __init__(self, of: str, init: Any = None) -> None:
        super().__init__(init)
        self.of = f"obj.{of}"

    def key(self, v, bind):
        of = self.of
        return (f"(None if {of} is None else {v} - num.cycle"
                f" if {of}.seq >= num.first else ({v},))")

    def move(self, v, bind):
        return [f"if {self.of} is not None and {self.of}.seq >= shift.first:"
                f" {v} += shift.cycles"]


class Lru(Kind):
    """An LRU stamp: its set is keyed in the order the stamps give it,
    and it is restamped from ``Shift.stamps`` by its record's field
    ``by``.  Without one, the clock, moved on."""

    keyed = False

    def __init__(self, init: Any = _KEEP, by: Optional[str] = None) -> None:
        super().__init__(init)
        self.by = by

    def move(self, v, bind):
        if self.by is None:
            return [f"{v} += shift.ticks"]
        return [f"stamp = shift.stamps.get(obj.{self.by})",
                f"if stamp is not None: {v} = shift.base + stamp"]


class Part(Kind):
    """A sub-component or record with its own declaration: reset in
    place, unless it has an ``init`` to be made anew from."""

    def key(self, v, bind):
        return f"(None if {v} is None else plans[type({v})].key({v}, num))"

    def move(self, v, bind):
        return [f"if {v} is not None: renumber({v}, shift)"]


class Ref(Kind):
    """A reference to a numbered record, keyed by its ``number``; where
    the record may have left its container, ``live`` tells, and a dead
    one is keyed by the fields ``dead`` names."""

    def __init__(self, number: str = "seq",
                 live: Optional[Callable[[Any, Numbering], bool]] = None,
                 dead: Tuple[str, ...] = ()) -> None:
        super().__init__()
        self.number, self.live, self.dead = number, live, dead

    def key(self, v, bind):
        number = f"num({v}.{self.number})"
        if self.live is not None:
            dead = "".join(f", {v}.{name}" for name in self.dead)
            number += f" if {bind(self.live)}({v}, num) else (None{dead})"
        return f"(None if {v} is None else {number})"


def in_window(entry, num: Numbering) -> bool:
    """A reorder-buffer entry is still in flight."""
    return num.live.get(entry.seq) is entry


class Records(Kind):
    """A list, deque, set or dict of records (``of`` a declared class),
    of references (a :class:`Ref`), of numbers (:data:`SEQ`) or of other
    such containers (a list of lists, keyed as where each non-empty one
    stands, and it).  Numbers are keyed in order, records with an LRU
    stamp in the order it gives them; a dict ``by_seq`` is re-keyed when
    renumbered."""

    def __init__(self, of, init: Any = _KEEP, by_seq: bool = False) -> None:
        super().__init__(init)
        self.of, self.by_seq = of, by_seq
        dict_like = by_seq or init in (dict, OrderedDict)
        self.values = ".values()" if dict_like else ""

    def key(self, v, bind):
        of, r = self.of, bind(None)
        if isinstance(of, Records):
            i = bind(None)
            return (f"tuple([({i}, {of.key(r, bind)})"
                    f" for {i}, {r} in enumerate({v}) if {r}])")
        values = v + self.values
        if isinstance(of, Kind):
            if of is SEQ:
                values = f"sorted({values})"
            return f"tuple([{of.key(r, bind)} for {r} in {values}])"
        plan = plans[of]
        if plan.lru is not None:
            values = f"sorted({values}, key={bind(plan.lru)})"
        return f"tuple([{bind(plan.key)}({r}, num) for {r} in {values}])"

    def move(self, v, bind):
        of, r = self.of, bind(None)
        if of is SEQ:
            return [f"{v} = type({v})([{r} + shift.seqs if {r} >= shift.first"
                    f" else {r} for {r} in {v}])"]
        if isinstance(of, Records):
            lines = [f"for {r} in {v}:"]
            lines += [f"    {line}" for line in of.move(r, bind)]
        elif isinstance(of, Kind):
            lines = []
        else:
            lines = [f"for {r} in {v}{self.values}: renumber({r}, shift)"]
        if self.by_seq:
            lines.append(
                f"{v} = type({v})(({r} + shift.seqs if {r} >= shift.first"
                f" else {r}, record) for {r}, record in {v}.items())")
        return lines


class _Plan:
    """One class's declaration, compiled: ``reset`` sets each field its
    kind makes anew (a constant, a new instance of a type, or what a
    function of the owner returns) and resets each part in place, in
    declaration order; ``key`` reads each keyed field as its kind says,
    ``move`` moves each field a period moves; ``lru`` is the stamp a set
    of its records is ordered by.  (One assignment a field: an update
    of ``vars(obj)`` would make CPython keep the instance's attributes
    in a dict, and every later read of one slower — ``verify_campaign``
    read 15 % slower in pairs.)"""

    __slots__ = ("reset", "key", "move", "lru")

    def __init__(self, cls: type) -> None:
        state: Dict[str, Kind] = cls.STATE
        scope: Dict[str, Any] = {"renumber": renumber, "plans": plans}

        def bind(value: Any) -> str:
            name = f"_{len(scope)}"
            scope[name] = value
            return name

        resets: List[str] = []
        keys: List[str] = []
        moves: List[str] = []
        self.lru: Optional[Callable] = None
        for name, kind in state.items():
            field = f"obj.{name}"
            if isinstance(kind.init, type):
                resets.append(f"{field} = {bind(kind.init)}()")
            elif callable(kind.init):
                resets.append(f"{field} = {bind(kind.init)}(obj)")
            elif kind.init is not _KEEP:
                resets.append(f"{field} = {bind(kind.init)}")
            elif isinstance(kind, Part):
                resets.append(f"plans[type({field})].reset({field})")
            if kind.keyed:
                keys.append(kind.key(field, bind) + ",")
            moves += kind.move(field, bind)
            if isinstance(kind, Lru) and kind.by is not None:
                self.lru = attrgetter(name)
        exec(_function("reset_", "obj", resets)
             + _function("key", "obj, num", [f"return ({' '.join(keys)})"])
             + _function("move", "obj, shift", moves), scope)
        self.reset, self.key, self.move = (scope["reset_"], scope["key"],
                                           scope["move"])


def _function(name: str, args: str, lines: List[str]) -> str:
    body = "".join(f"\n    {line}" for line in lines or ["pass"])
    return f"def {name}({args}):{body}\n"


class _Plans(Dict[type, _Plan]):
    def __missing__(self, cls: type) -> _Plan:
        plan = self[cls] = _Plan(cls)
        return plan


plans = _Plans()


def reset(obj) -> None:
    """Back to the state construction leaves: every field reset as its
    kind says (a run's configuration, fixed, is set before)."""
    plans[type(obj)].reset(obj)


def period_key(obj, num: Numbering) -> tuple:
    """``obj``'s state, numbered as ``num`` counts."""
    return plans[type(obj)].key(obj, num)


def renumber(obj, shift: Shift) -> None:
    """Move ``obj`` on by ``shift``'s whole periods; records stay the
    same objects, so every binding to them holds."""
    if id(obj) not in shift.seen:
        shift.seen.add(id(obj))
        plans[type(obj)].move(obj, shift)
