"""The user-write sorting buffer (paper Section 5.3 and Figure 4).

MDC separates data by update frequency by *sorting* pending page writes by
their ``up2`` estimate before packing them into segments, so consecutive
segments receive pages of similar hotness.  The buffer is RAM: it holds
page ids (the simulator never materializes contents) and does not consume
device segments.

A rewrite of a page already in the buffer replaces it in place — the
buffer always holds at most one (the latest) version of a page, so
buffered pages never create garbage in segments.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class SortBuffer:
    """Accumulates user page writes until ``capacity_units`` worth arrive.

    The store drains the buffer (via its flush path) when an ``add`` would
    overflow; the buffer itself only tracks membership and occupancy.
    """

    __slots__ = ("capacity_units", "used_units", "_sizes")

    def __init__(self, capacity_units: int) -> None:
        if capacity_units < 1:
            raise ValueError("capacity_units must be positive")
        self.capacity_units = capacity_units
        self.used_units = 0
        #: page id -> size, in insertion order (dict preserves it).
        self._sizes: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._sizes

    def fits(self, size: int) -> bool:
        """Whether ``size`` more units fit without overflowing."""
        return self.used_units + size <= self.capacity_units

    def add(self, page_id: int, size: int) -> None:
        """Insert a page; caller must have checked :meth:`fits` (and the
        page must not already be buffered — rewrites use :meth:`replace`)."""
        self._sizes[page_id] = size
        self.used_units += size

    def replace(self, page_id: int, size: int) -> None:
        """A buffered page was rewritten; update its size in place."""
        old = self._sizes[page_id]
        self._sizes[page_id] = size
        self.used_units += size - old

    def remove(self, page_id: int) -> None:
        """Discard a buffered page (TRIM of a not-yet-persisted write)."""
        self.used_units -= self._sizes.pop(page_id)

    def drain(self) -> np.ndarray:
        """Remove and return all buffered page ids in insertion order."""
        pids = np.fromiter(self._sizes, dtype=np.int64, count=len(self._sizes))
        self._sizes.clear()
        self.used_units = 0
        return pids
