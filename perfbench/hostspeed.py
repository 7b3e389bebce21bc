"""Host-speed probe: a fixed slice of reference work between timed calls.

The host these bounds were set on (a 2-vCPU KVM guest) changes speed by
up to 2x, in phases that last from seconds to minutes, with CPU time
equal to wall time.  A phase can cover a whole run, so no statistic of
the program's own timings removes it: ten runs of identical work spread
by more than any bound allowed.

So every timed loop is cut into blocks, and a short fixed slice of
reference work (``HostProbe.probe``, about 0.2 ms) runs before each block.
The slice is the benchmark's own code and never changes with the
program.  A block's *host factor* is the median duration of the slices
around it divided by ``REF_SLICE_S``, the slice's duration at the
reference speed.  Every time the benchmark reports -- a call's latency,
a block of a timed phase, a set-up -- is divided by the factor measured
around it: it is the time the work would take on the reference host.
(The sim's slowest calls are the exception; see ``workloads.py``.)
Slice time is never counted as program time.

A change to the program moves its timings and leaves the slices alone,
so the scaled times move by the same share as the raw ones.  Raw
timings and the factors are kept in the run's record for comparison.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_clock = time.perf_counter

#: Duration of one slice at the reference speed: both kinds were sized
#: to take about this long on the 2.0 GHz Xeon guest where the bounds
#: were measured.
REF_SLICE_S = 90e-6
#: Slices whose median gives one block's factor, centred on the block.
#: Single slices catch interrupts; medians over more lag behind the
#: host's fast/slow flips.
WINDOW = 5
#: Entries each kind of slice visits; its data stays in cache.
_PYTHON_KEYS = 585
_NUMPY_READS = 430


class HostProbe:
    """Times fixed reference slices and the blocks of work between them.

    ``kind`` picks the slice that resembles the code being timed, because
    the host's slow phases slow different code by different amounts:

    - ``"python"``: a walk over a dict and a list of ints, like the
      service layers' bookkeeping.  Across rounds of ``svc-mixed-uniform``
      it took the spread of the drive time from 0.24 to 0.04, where the
      ``"numpy"`` slice left 0.15.
    - ``"numpy"``: element reads from a numpy array turned into Python
      ints, like the store's mapping-table lookups.  On those lookups it
      took the spread of 1-second medians from 0.70 to 0.12, where the
      ``"python"`` slice left 0.25.  It over-corrects ``write_batch``
      calls, which mix Python bookkeeping with vector numpy work.
    """

    def __init__(self, kind: str) -> None:
        if kind == "python":
            self._walk = self._walk_python
        elif kind == "numpy":
            self._walk = self._walk_numpy
        else:
            raise ValueError("unknown slice kind %r" % kind)
        self._keys = list(range(0, 7 * _PYTHON_KEYS, 7))
        self._table = {k: 3 * k for k in self._keys}
        self._scratch = [0] * _PYTHON_KEYS
        rng = np.random.default_rng(0)
        self._column = rng.integers(0, 1 << 20, size=1 << 15)
        self._reads = rng.integers(0, 1 << 15, size=_NUMPY_READS).tolist()
        self._sink = 0
        #: Duration of every slice run, in order.
        self.slices: List[float] = []
        #: Duration of every closed block, slice time excluded.
        self.blocks: List[float] = []
        self._block_start: Optional[float] = None

    def _walk_python(self) -> None:
        keys, table, scratch = self._keys, self._table, self._scratch
        s = 0
        for i in range(_PYTHON_KEYS):
            k = keys[i]
            s += table[k]
            scratch[i] = s
            table[k] = s & 1023
        self._sink = s

    def _walk_numpy(self) -> None:
        column = self._column
        s = 0
        for i in self._reads:
            s += int(column[i])
        self._sink = s

    def probe(self) -> float:
        """Run one slice; return the clock at its end.  Only the second
        of two walks is timed, so the slice measures the processor's
        speed, not how much of its data the program evicted."""
        self._walk()
        t = _clock()
        self._walk()
        end = _clock()
        self.slices.append(end - t)
        return end

    def lap(self) -> None:
        """Close the current block (if one is open) and start the next
        after a slice."""
        now = _clock()
        if self._block_start is not None:
            self.blocks.append(now - self._block_start)
        self._block_start = self.probe()

    def finish(self) -> None:
        """Close the last block."""
        self.blocks.append(_clock() - self._block_start)
        self._block_start = None

    def factors(self) -> np.ndarray:
        """Per slice: the median of the ``WINDOW`` slices centred on it,
        over ``REF_SLICE_S``.  Above 1 means a slower host than the
        reference."""
        d = np.asarray(self.slices, dtype=np.float64)
        if d.size == 0:
            raise ValueError("no slice was run")
        h = WINDOW // 2
        padded = np.pad(d, h, mode="edge")
        return np.median(sliding_window_view(padded, WINDOW), axis=1) / REF_SLICE_S

    def scaled_total(self) -> float:
        """The closed blocks' summed time, each block divided by the
        factor of the slice that started it."""
        f = self.factors()[: len(self.blocks)]
        return float(np.sum(np.asarray(self.blocks) / f))

    def scale_items(self, values, every: int) -> np.ndarray:
        """Divide per-item times by their block's factor, for items
        timed in blocks of ``every`` with a ``lap`` before each block."""
        values = np.asarray(values, dtype=np.float64)
        f = np.repeat(self.factors(), every)[: values.size]
        return values / f

    def spot(self) -> float:
        """The median factor of ``WINDOW`` fresh slices."""
        start = len(self.slices)
        for _ in range(WINDOW):
            self.probe()
        return float(np.median(self.slices[start:])) / REF_SLICE_S
