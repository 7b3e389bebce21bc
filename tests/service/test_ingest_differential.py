"""Differential test: the dict-backed ingest queue against the
list-backed queue it replaced.

``ListIngestQueue`` below is a verbatim copy of the earlier
implementation, whose pending runs were plain lists coalesced at flush
time.  Both queues are driven with the same random put / delete / tick
/ flush_all sequence over recording fake shards; after every step the
shard calls, read-your-writes lookups, depths and metrics must match
exactly.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs import PAGES_EDGES, MetricsRegistry
from repro.service import IngestQueue
from repro.service.ingest import BATCH_SIZE_EDGES, OP_DELETE, OP_PUT

Op = Tuple[int, object, Optional[bytes]]

KEYS = ("a", "b", "c", ("t", 1), ("t", 2))


class RecordingShard:
    """A ``LogStructuredKVStore``-shaped stand-in that logs every call."""

    def __init__(self) -> None:
        self.calls: List[tuple] = []
        self.store = SimpleNamespace(stats=SimpleNamespace(gc_writes=0))

    def put_many(self, items) -> int:
        items = list(items)
        self.calls.append(("put_many", items))
        # Pretend cleaning ran, so the stall histogram sees non-zero pages.
        self.store.stats.gc_writes += len(items) // 2
        return len(items)

    def delete(self, key) -> bool:
        self.calls.append(("delete", key))
        return True


class ListIngestQueue:
    """Bounded, coalescing write queue over a pool of KV shards.

    Args:
        shards: The pool's shard list (``LogStructuredKVStore``-shaped:
            ``put_many``, ``delete``).
        batch_size: Per-shard flush-on-size threshold, in ops.
        flush_interval: Ticks a pending op may wait before flush-on-tick.
        max_depth: Total queued ops across all shards before
            backpressure flushes the deepest shard.
        metrics: Service :class:`~repro.obs.MetricsRegistry` for queue
            instrumentation (optional).
    """

    def __init__(
        self,
        shards: List,
        batch_size: int = 256,
        flush_interval: int = 4,
        max_depth: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        if max_depth < batch_size:
            raise ValueError("max_depth must be >= batch_size")
        self.shards = shards
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_depth = max_depth
        self.metrics = metrics
        self.depth = 0
        #: Queue depth observed at every tick (p95 source for benches).
        self.depth_samples: List[int] = []
        self._pending: List[List[Op]] = [[] for _ in shards]
        #: Tick at which each shard's oldest pending op was enqueued.
        self._oldest_tick: List[Optional[int]] = [None for _ in shards]
        self._tick = 0
        #: Optional callback fired after any shard flush (the service
        #: uses it to run cleaning governance between batches).
        self.after_flush: Optional[Callable[[int], None]] = None
        #: Optional callback fed each flush's stall pages (the service
        #: routes it into its :class:`~repro.obs.slo.SLOTracker`).
        self.on_stall: Optional[Callable[[float], None]] = None
        #: Optional :class:`~repro.obs.trace.Tracer`; when set, each
        #: flush opens a ``queue.flush`` span with ``shard.put_many``
        #: and downstream clean/maintain work as children.
        self.tracer = None

    def add_shard(self, shard) -> None:
        """Track one more shard (pool growth)."""
        self.shards.append(shard)
        self._pending.append([])
        self._oldest_tick.append(None)

    # -- enqueue ---------------------------------------------------------

    def put(self, shard: int, key, value: bytes) -> None:
        """Queue an upsert for ``shard``."""
        self._push(shard, (OP_PUT, key, value))

    def delete(self, shard: int, key) -> None:
        """Queue a delete for ``shard``."""
        self._push(shard, (OP_DELETE, key, None))

    def _push(self, shard: int, op: Op) -> None:
        pending = self._pending[shard]
        if not pending:
            self._oldest_tick[shard] = self._tick
        pending.append(op)
        self.depth += 1
        if len(pending) >= self.batch_size:
            self.flush_shard(shard)
        elif self.depth >= self.max_depth:
            deepest = max(
                range(len(self._pending)), key=lambda s: len(self._pending[s])
            )
            if self.metrics is not None:
                self.metrics.counter("backpressure_flushes").inc()
            self.flush_shard(deepest)

    # -- flushing --------------------------------------------------------

    def tick(self) -> int:
        """Advance the queue clock; flush shards whose oldest op aged
        past ``flush_interval``.  Returns the number of shards flushed."""
        self._tick += 1
        flushed = 0
        for shard in range(len(self._pending)):
            oldest = self._oldest_tick[shard]
            if (
                oldest is not None
                and self._tick - oldest >= self.flush_interval
            ):
                self.flush_shard(shard)
                flushed += 1
        self.depth_samples.append(self.depth)
        if self.metrics is not None:
            self.metrics.gauge("queue_depth").set(self.depth)
        return flushed

    def flush_shard(self, shard: int) -> int:
        """Apply ``shard``'s pending ops as one coalesced batch;
        returns the number of queued ops consumed."""
        ops = self._pending[shard]
        if not ops:
            return 0
        tracer = self.tracer
        span = None
        if tracer is not None:
            oldest = self._oldest_tick[shard]
            span = tracer.start(
                "queue.flush",
                shard=shard,
                ops=len(ops),
                queue_wait_ticks=0 if oldest is None else self._tick - oldest,
            )
        self._pending[shard] = []
        self._oldest_tick[shard] = None
        n = len(ops)
        self.depth -= n
        kv = self.shards[shard]
        # Foreground stall accounting: every GC page relocated anywhere
        # in the pool while this flush runs — inline reactive cleaning
        # under the batch *and* governance dispatched by after_flush —
        # is work the client-facing flush waited behind.  Stall-free
        # flushes observe 0 so the histogram's percentiles read over
        # the full flush population.
        gc_before = (
            sum(s.store.stats.gc_writes for s in self.shards)
            if self.metrics is not None
            else 0
        )
        # Last write wins per key; dict insertion keeps first-arrival
        # order for the surviving ops, so replay order is deterministic.
        final: dict = {}
        for op in ops:
            final[op[1]] = op
        puts = [
            (key, op[2]) for key, op in final.items() if op[0] == OP_PUT
        ]
        if puts:
            pspan = (
                tracer.start("shard.put_many", shard=shard, puts=len(puts))
                if tracer is not None
                else None
            )
            try:
                kv.put_many(puts)
            finally:
                if pspan is not None:
                    tracer.finish(pspan)
        for key, op in final.items():
            if op[0] == OP_DELETE:
                kv.delete(key)
        if self.metrics is not None:
            self.metrics.counter("batches_flushed").inc()
            self.metrics.counter("ops_flushed").inc(n)
            self.metrics.counter("ops_coalesced").inc(n - len(final))
            self.metrics.counter("shard%d_ops" % shard).inc(n)
            self.metrics.histogram("batch_size", BATCH_SIZE_EDGES).observe(n)
        if self.after_flush is not None:
            self.after_flush(shard)
        stall = 0
        if self.metrics is not None:
            stall = (
                sum(s.store.stats.gc_writes for s in self.shards) - gc_before
            )
            self.metrics.histogram(
                "flush_stall_pages", PAGES_EDGES
            ).observe(stall)
            if self.on_stall is not None:
                self.on_stall(float(stall))
        if span is not None:
            tracer.finish(
                span, stall_pages=float(stall), coalesced=n - len(final)
            )
        return n

    def flush_all(self) -> int:
        """Drain every shard; returns the total ops applied."""
        total = 0
        for shard in range(len(self._pending)):
            total += self.flush_shard(shard)
        return total

    def pending_value(self, shard: int, key) -> Optional[Op]:
        """The most recent queued op for ``key`` on ``shard`` (read-
        your-writes support), or None."""
        for op in reversed(self._pending[shard]):
            if op[1] == key:
                return op
        return None

    def __len__(self) -> int:
        return self.depth


def _build(cls, n_shards, batch_size, flush_interval, max_depth):
    shards = [RecordingShard() for _ in range(n_shards)]
    metrics = MetricsRegistry()
    queue = cls(
        shards,
        batch_size=batch_size,
        flush_interval=flush_interval,
        max_depth=max_depth,
        metrics=metrics,
    )
    flushed: List[int] = []
    queue.after_flush = flushed.append
    stalls: List[float] = []
    queue.on_stall = stalls.append
    return SimpleNamespace(
        queue=queue, shards=shards, metrics=metrics, flushed=flushed,
        stalls=stalls,
    )


def _assert_same(new, ref, n_shards):
    assert [s.calls for s in new.shards] == [s.calls for s in ref.shards]
    assert new.flushed == ref.flushed
    assert new.stalls == ref.stalls
    assert new.queue.depth == ref.queue.depth
    assert new.queue.depth_samples == ref.queue.depth_samples
    for shard in range(n_shards):
        assert new.queue.shard_depth(shard) == len(ref.queue._pending[shard])
        for key in KEYS:
            assert new.queue.pending_value(shard, key) == (
                ref.queue.pending_value(shard, key)
            )
    # The whole snapshot: ops_flushed, ops_coalesced,
    # backpressure_flushes, the batch_size histogram and the rest.
    assert new.metrics.snapshot().to_dict() == ref.metrics.snapshot().to_dict()


steps = st.one_of(
    st.tuples(
        st.just("put"),
        st.integers(0, 3),
        st.sampled_from(KEYS),
        st.binary(min_size=1, max_size=3),
    ),
    st.tuples(st.just("delete"), st.integers(0, 3), st.sampled_from(KEYS)),
    st.tuples(st.just("tick")),
    st.tuples(st.just("flush_all")),
)


@settings(max_examples=300, deadline=None)
@given(
    n_shards=st.integers(1, 4),
    batch_size=st.integers(1, 8),
    flush_interval=st.integers(1, 3),
    extra_depth=st.integers(0, 6),
    ops=st.lists(steps, max_size=80),
)
def test_matches_list_queue(n_shards, batch_size, flush_interval, extra_depth, ops):
    args = (n_shards, batch_size, flush_interval, batch_size + extra_depth)
    new = _build(IngestQueue, *args)
    ref = _build(ListIngestQueue, *args)
    for op in ops:
        kind = op[0]
        if kind == "put":
            shard = op[1] % n_shards
            new.queue.put(shard, op[2], op[3])
            ref.queue.put(shard, op[2], op[3])
        elif kind == "delete":
            shard = op[1] % n_shards
            new.queue.delete(shard, op[2])
            ref.queue.delete(shard, op[2])
        elif kind == "tick":
            assert new.queue.tick() == ref.queue.tick()
        else:
            assert new.queue.flush_all() == ref.queue.flush_all()
        _assert_same(new, ref, n_shards)
