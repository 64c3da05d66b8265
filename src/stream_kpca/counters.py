"""Logical entry counting for space audits.

The counter tracks matrix/vector entries the algorithms themselves
materialize (sketches, covariances, factor temporaries). It is bookkeeping,
not an allocator hook: LAPACK-internal scratch is not counted.
"""

from __future__ import annotations


class EntryCounter:
    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def alloc(self, entries: int) -> None:
        self.current += int(entries)
        if self.current > self.peak:
            self.peak = self.current

    def free(self, entries: int) -> None:
        self.current -= int(entries)
