"""Micro-ops for the trace-driven core models.

A trace is a list of :class:`Uop` whose ``deps`` are absolute positions
in the core's uop stream (counted from the first uop the core ever
executed, across every :meth:`execute` call).  A dep must name an
earlier uop: the core models raise :class:`~repro.errors.SimulationError`
for a negative, self or forward reference instead of ignoring it.  Trace
generators offset their deps by the stream position the trace starts at,
so concatenated per-probe traces stay independent of each other.
"""

from __future__ import annotations

import enum
from typing import Tuple

from ..errors import SimulationError


class UopKind(enum.Enum):
    """Micro-op categories for the trace-driven core models."""
    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


_LOAD = UopKind.LOAD
_STORE = UopKind.STORE


class Uop:
    """One micro-op.

    ``deps`` are stream-relative indices (absolute positions in the uop
    stream) of producers this uop must wait for.  ``addr`` is the simulated
    memory address for loads/stores.  ``mispredict`` marks a branch the
    front-end mispredicts (charged a refill penalty by the core models).

    A plain ``__slots__`` record: the trace generators build hundreds of
    thousands per figure run.  Equality, hash and repr are by value over
    the five fields, in declaration order, so treat instances as
    immutable.
    """

    __slots__ = ("kind", "addr", "deps", "latency", "mispredict")

    def __init__(self, kind: UopKind, addr: int = 0,
                 deps: Tuple[int, ...] = (), latency: int = 1,
                 mispredict: bool = False) -> None:
        if addr == 0 and (kind is _LOAD or kind is _STORE):
            raise ValueError(f"{kind.value} uop needs a target address")
        if latency < 1:
            raise ValueError("uop latency must be >= 1")
        self.kind = kind
        self.addr = addr
        self.deps = deps
        self.latency = latency
        self.mispredict = mispredict

    def _fields(self) -> tuple:
        return (self.kind, self.addr, self.deps, self.latency,
                self.mispredict)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Uop(kind={self.kind!r}, addr={self.addr!r}, "
                f"deps={self.deps!r}, latency={self.latency!r}, "
                f"mispredict={self.mispredict!r})")


def dep_error(position: int, dep: int) -> SimulationError:
    """The error a core model raises for a dep of the uop at stream
    ``position`` that does not name an earlier uop."""
    return SimulationError(
        f"uop at stream position {position} depends on position {dep}, "
        f"which is not an earlier uop of the stream")
