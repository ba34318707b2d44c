"""Page-fault taxonomy and dispatch.

The mechanism engine routes every non-OK translation through this
dispatcher.  Two fault kinds matter to Thermostat:

* ``POISON`` — a reserved-bit (bit 51) protection fault on a page
  deliberately poisoned by BadgerTrap; the registered handler counts the
  access, temporarily unpoisons, and charges the ~1us software latency;
* ``NOT_MAPPED`` — demand paging; the address space maps the page on
  first touch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.errors import SimulationError
from repro.mem.address import VirtualAddress
from repro.mem.pte import PageTableEntry


class FaultKind(enum.Enum):
    """Why a translation failed."""

    NOT_MAPPED = "not_mapped"
    POISON = "poison"


@dataclass(frozen=True)
class FaultContext:
    """Everything a handler needs about one fault."""

    kind: FaultKind
    address: VirtualAddress
    write: bool
    entry: PageTableEntry | None
    huge: bool


#: A fault handler returns the latency (seconds) it consumed.
FaultHandler = Callable[[FaultContext], float]


class FaultDispatcher:
    """Routes faults to one handler per kind."""

    def __init__(self) -> None:
        self._handlers: dict[FaultKind, FaultHandler] = {}
        self.counts: dict[FaultKind, int] = {kind: 0 for kind in FaultKind}

    def register(self, kind: FaultKind, handler: FaultHandler) -> None:
        """Install the handler for a fault kind (replacing any previous)."""
        self._handlers[kind] = handler

    def dispatch(self, context: FaultContext) -> float:
        """Route one fault; returns the handler's latency contribution."""
        handler = self._handlers.get(context.kind)
        if handler is None:
            raise SimulationError(
                f"unhandled {context.kind.value} fault at {context.address:#x}"
            )
        self.counts[context.kind] += 1
        return handler(context)
