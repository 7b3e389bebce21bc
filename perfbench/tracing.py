"""In-memory span recording around the public methods of live layer objects.

The traced run never touches the program's source: it replaces a bound
method on one *instance* with a wrapper that records a span (name,
start, end, parent) and then calls the original.  This sees inside the
program because every internal call already goes through an instance
attribute (``self.write``, ``self.clean_step``, ``self.policy.
select_victims``, ``self.shards[i].put_many``, ``self.router.shard_for``
...), so instance attributes shadow the class methods on every path.

Spans stay in parallel Python lists while the run lasts (cheap appends,
no per-span objects) and are turned into numpy arrays when it ends.  A
span's *self time* is its duration minus the durations of its direct
children; children nest strictly inside their parent because the run is
single-threaded and every wrapper closes its span in ``finally``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    """Records nested spans from method wrappers, one stack per run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        #: Per-span number taken from the wrapped call's return value
        #: (items applied, pages moved, hit/miss) where one is kept.
        self.value: List[float] = []
        self._stack: List[int] = [-1]
        self._installed: List[tuple] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span by hand (the driver's own root span)."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def wrap(
        self,
        obj,
        attr: str,
        name: str,
        keep: Optional[Callable[[object], float]] = None,
        on_start: Optional[Callable[..., None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``keep`` maps the call's return value to the span's number;
        ``on_start`` is called with the call's arguments just after the
        span opens.
        """
        fn = getattr(obj, attr)
        nid = self.intern(name)
        name_id, parent, value = self.name_id, self.parent, self.value
        start, end, stack = self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            if on_start is not None:
                on_start(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    value[idx] = keep(result)
                return result
            finally:
                end[idx] = _clock()
                stack.pop()

        setattr(obj, attr, wrapper)
        self._installed.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns, plus each span's self time."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "value": np.asarray(self.value, dtype=np.float64),
            "self_s": duration - covered,
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and the sum of ``value``."""
        cols = self.arrays()
        n = len(self.names)
        nid = cols["name_id"]
        calls = np.bincount(nid, minlength=n)
        self_s = np.bincount(nid, weights=cols["self_s"], minlength=n)
        values = np.bincount(nid, weights=cols["value"], minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "value": float(values[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write the spans (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
