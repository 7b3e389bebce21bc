"""The benchmark's three workloads: set-up, timed drive, output checks.

Every workload runs in one process on one thread and is closed loop with
one operation in flight: callers of ``Service.put`` and of
``LogStructuredStore.write_batch`` wait for the call to return.  Inputs
(op streams, write batches, values, expected read results) are made in
set-up from the seed, so generating them is never timed.  Every config
field is spelled out here rather than taken from library defaults, so a
change of default elsewhere cannot silently change what is measured.

``README.md`` beside this file records why each workload exists and
which layer metrics should move which end-to-end metrics.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.mdc import MdcPolicy
from repro.service.harness import HarnessConfig, build_service, ops_stream
from repro.store import LogStructuredStore, StoreConfig
from repro.store.pagetable import IN_BUFFER
from repro.workloads import ZipfianWorkload
from repro.workloads.zipfian import ZIPF_80_20

from hostspeed import HostProbe
from tracing import SpanRecorder

_clock = time.perf_counter

PUT, DELETE, GET = 0, 1, 2


def frozen_gc(fn):
    """Run ``fn`` with the set-up's objects moved out of the collector's
    reach, so the benchmark's own inputs do not lengthen the program's
    garbage-collection pauses."""
    gc.collect()
    gc.freeze()
    try:
        return fn()
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# sim-mdc-zipf: LogStructuredStore.write_batch, the paper's Figure 5 loop
# ----------------------------------------------------------------------

#: ``_standard_config(0.8, 16)`` of ``repro.bench.experiments``.
SIM_CONFIG = StoreConfig(
    n_segments=512,
    segment_units=64,
    fill_factor=0.8,
    clean_trigger=4,
    clean_batch=8,
    sort_buffer_segments=16,
    user_pages_override=None,
    seed=0,
)
#: Updates after the initial load, in multiples of the page population.
SIM_WRITE_MULTIPLIER = 8
#: Pages per ``write_batch`` call.  Batching never changes store state
#: (batch writes are byte-identical to scalar writes), so this only sets
#: how many per-call latencies the run samples.
SIM_BATCH_PAGES = 256
#: Wamp is measured over this tail share of the updates, as
#: ``run_simulation`` does.
SIM_MEASURE_FRACTION = 0.5
#: Mapping-table lookups per read-latency sample.  One lookup costs
#: about as much as two clock reads, so timing lookups one at a time
#: measured mostly the clock (p50 spread 0.60 across ten runs).
SIM_READS_PER_SAMPLE = 64
#: Read-back passes over every page, each in its own order.  One pass is
#: only about 30 ms of lookups, too short to average the host's flips.
SIM_READ_PASSES = 8
#: ``write_batch`` calls, and read samples, per host-speed block
#: (about 20 ms of work each; see ``hostspeed.py``).
SIM_PROBE_EVERY = 8


class SimWorkload:
    name = "sim-mdc-zipf"
    #: The slowest calls are cleaning passes of vector numpy work, which
    #: the host's slow phases barely slow: scaled by the host factor
    #: their p999 spread 0.11 across rounds of identical work, unscaled
    #: 0.07.  So ``write_p999_us`` is reported unscaled here.
    scale_write_tail = False

    def setup(self, seed: int) -> dict:
        cfg = SIM_CONFIG
        store = LogStructuredStore(
            cfg, MdcPolicy(estimator="up2", separate_user=True, separate_gc=True)
        )
        store.load_sequential(cfg.user_pages)
        workload = ZipfianWorkload(cfg.user_pages, theta=ZIPF_80_20, seed=seed)
        n_batches = 2 * int(
            np.ceil(SIM_WRITE_MULTIPLIER * cfg.user_pages / (2 * SIM_BATCH_PAGES))
        )
        batches = list(
            workload.batches(n_batches * SIM_BATCH_PAGES, batch=SIM_BATCH_PAGES)
        )
        rng = np.random.default_rng(seed + 1)
        read_order = np.concatenate(
            [rng.permutation(cfg.user_pages) for _ in range(SIM_READ_PASSES)]
        )
        return {
            "store": store,
            "batches": batches,
            "read_order": read_order.tolist(),
        }

    def instrument(self, state: dict, rec: SpanRecorder) -> None:
        _instrument_store(state["store"], rec)

    def drive(self, state: dict, rec: Optional[SpanRecorder], waits=None) -> dict:
        store = state["store"]
        batches = state["batches"]
        warm = int(len(batches) * (1.0 - SIM_MEASURE_FRACTION))
        lat = np.empty(len(batches))
        failed = 0
        write_batch = store.write_batch
        writes0 = store.stats.user_writes
        probe = HostProbe("python")
        lap = probe.lap
        every = SIM_PROBE_EVERY
        root = rec.open("bench.drive") if rec is not None else None
        for i, batch in enumerate(batches):
            if i % every == 0:
                lap()
            if i == warm:
                mark = store.stats.snapshot()
            t = _clock()
            try:
                write_batch(batch)
            except Exception:
                failed += 1
            lat[i] = _clock() - t
        probe.finish()
        if rec is not None:
            rec.close(root)
        window = store.stats.window_since(mark)
        return {
            "drive_s": probe.scaled_total(),
            "drive_raw_s": float(np.sum(probe.blocks)),
            "ops": sum(len(b) for b in batches),
            "attempted": len(batches),
            "failed": failed,
            "window": window,
            "store_writes": store.stats.user_writes - writes0,
            "write_lat_s": probe.scale_items(lat, every),
            "write_raw_lat_s": lat,
            "host_factors": probe.factors(),
        }

    def read_back(self, state: dict) -> dict:
        """Locate every page through the mapping table, the store's read
        path, ``SIM_READ_PASSES`` times.  Each sample is the time per
        lookup of a group of ``SIM_READS_PER_SAMPLE`` lookups."""
        locate = state["store"].pages.location
        order = state["read_order"]
        # The lookups are numpy element reads, and slow with the host as
        # the numpy slice does (see hostspeed.py).
        probe = HostProbe("numpy")
        lat = []
        found = []
        for sample, start in enumerate(range(0, len(order), SIM_READS_PER_SAMPLE)):
            if sample % SIM_PROBE_EVERY == 0:
                probe.lap()
            group = order[start:start + SIM_READS_PER_SAMPLE]
            t = _clock()
            for pid in group:
                found.append(locate(pid))
            lat.append((_clock() - t) / len(group))
        probe.finish()
        return {
            "get_lat_s": probe.scale_items(lat, SIM_PROBE_EVERY),
            "found": found,
            "timed": True,
        }

    def check(self, state: dict, drive: dict, reads: dict) -> List[str]:
        store = state["store"]
        cfg = store.config
        problems = []
        try:
            store.check_invariants()
        except AssertionError as exc:
            problems.append("check_invariants: %s" % exc)
        st = store.stats
        # Every emptiness is k / segment_units with a power-of-two
        # segment size, so the float sum is exact and so is the identity.
        expected_gc = cfg.segment_units * (
            st.segments_cleaned - st.cleaned_emptiness_sum
        )
        if st.gc_writes != expected_gc:
            problems.append(
                "identity: gc_writes=%d but B*(cleaned-emptiness)=%r"
                % (st.gc_writes, expected_gc)
            )
        if store.live_page_count() != cfg.user_pages:
            problems.append(
                "live pages %d != population %d"
                % (store.live_page_count(), cfg.user_pages)
            )
        slot_page = store.segments.slot_page
        for pid, (seg, slot) in zip(state["read_order"], reads["found"]):
            if seg >= 0:
                ok = slot_page[seg, slot] == pid
            else:
                ok = seg == IN_BUFFER and pid in store.buffer
            if not ok:
                problems.append("page %d located at (%d, %d)" % (pid, seg, slot))
                break
        return problems


def _instrument_store(store, rec: SpanRecorder) -> None:
    for fn in ("write_batch", "write", "flush", "clean", "clean_begin", "trim"):
        rec.wrap(store, fn, "store." + fn)
    rec.wrap(store, "clean_step", "store.clean_step", keep=int)
    rec.wrap(store.policy, "select_victims", "policies.select_victims")
    rec.wrap(store.policy, "place_gc_batch", "policies.place_gc_batch")


# ----------------------------------------------------------------------
# svc-put-zipf and svc-mixed-uniform: Service.put/delete/get/tick
# ----------------------------------------------------------------------

#: Write-only traffic in the ``BENCH_latency.json`` incremental shape.
SVC_PUT_ZIPF = HarnessConfig(
    n_shards=4,
    n_clients=8,
    n_tenants=4,
    ops=200_000,
    keys_per_tenant=4096,
    dist="zipf-80-20",
    value_bytes=96,
    delete_frac=0.03,
    policy="mdc",
    unit_bytes=32,
    segment_units=32,
    target_fill=0.7,
    clean_trigger=2,
    clean_batch=8,
    batch_size=64,
    flush_interval=2,
    max_depth=4096,
    tick_every=128,
    replicas=64,
    tenant_spread=1.0,
    gc_budget=128,
    gc_max_share=0.5,
    free_target=10,
    cleaner="incremental",
    pages_per_step=16,
    sample_interval=None,
    seed=0,
)

#: The default ``repro serve`` shape over a uniform keyspace; ``ops`` is
#: the write count, and as many gets are interleaved.
SVC_MIXED_UNIFORM = HarnessConfig(
    n_shards=4,
    n_clients=8,
    n_tenants=4,
    ops=120_000,
    keys_per_tenant=8192,
    dist="uniform",
    value_bytes=96,
    delete_frac=0.03,
    policy="mdc",
    unit_bytes=32,
    segment_units=32,
    target_fill=0.55,
    clean_trigger=2,
    clean_batch=4,
    batch_size=256,
    flush_interval=4,
    max_depth=4096,
    tick_every=512,
    replicas=64,
    tenant_spread=1.0,
    gc_budget=None,
    gc_max_share=0.5,
    free_target=None,
    cleaner="batch",
    pages_per_step=32,
    sample_interval=None,
    seed=0,
)


#: Client operations per host-speed block (about 10 ms of work each; see
#: ``hostspeed.py``).
SVC_PROBE_EVERY = 512


def _value(i: int, size: int) -> bytes:
    """A value of ``size`` bytes that differs from its neighbours'."""
    return (i.to_bytes(4, "little") * (size // 4 + 1))[:size]


class ServiceWorkload:
    """Closed-loop client traffic through one :class:`Service`.

    ``get_share`` of the timed operations are ``Service.get`` calls on
    uniformly drawn keys; without them the get metrics come from the
    post-flush read-back of every key.
    """

    scale_write_tail = True

    def __init__(self, name: str, spec: HarnessConfig, preload: bool, get_share: float):
        self.name = name
        self.spec = spec
        self.preload = preload
        self.get_share = get_share

    def setup(self, seed: int) -> dict:
        # The spec's own seed fixes the hash ring and so the per-shard
        # geometry; the run's seed only draws the traffic.
        service = build_service(self.spec)
        cfg = dataclasses.replace(self.spec, seed=seed)
        rng = np.random.default_rng([seed, 0x5EED])
        tenants = ["t%d" % t for t in range(cfg.n_tenants)]
        model: Dict[tuple, bytes] = {}
        if self.preload:
            sizes = rng.integers(1, cfg.value_bytes + 1, size=cfg.n_tenants * cfg.keys_per_tenant)
            i = 0
            for tenant in tenants:
                for key in range(cfg.keys_per_tenant):
                    value = _value(~i & 0xFFFFFFFF, int(sizes[i]))
                    service.put(key, value, tenant=tenant)
                    model[(tenant, key)] = value
                    i += 1
            service.flush()
        writes = list(ops_stream(cfg))
        n_gets = int(round(self.get_share * len(writes) / (1.0 - self.get_share)))
        is_get = np.zeros(len(writes) + n_gets, dtype=bool)
        is_get[rng.permutation(is_get.size)[:n_gets]] = True
        get_tenant = rng.integers(0, cfg.n_tenants, size=n_gets)
        get_key = rng.integers(0, cfg.keys_per_tenant, size=n_gets)
        plan = []
        expected = []
        w = g = 0
        for slot_is_get in is_get.tolist():
            if slot_is_get:
                tenant, key = tenants[get_tenant[g]], int(get_key[g])
                plan.append((GET, tenant, key, None))
                expected.append(model.get((tenant, key)))
                g += 1
            else:
                op, tenant, key, size = writes[w]
                if op == "put":
                    value = _value(w, size)
                    plan.append((PUT, tenant, key, value))
                    model[(tenant, key)] = value
                else:
                    plan.append((DELETE, tenant, key, None))
                    model[(tenant, key)] = None
                w += 1
        readback = sorted(model)
        rng.shuffle(readback)
        return {
            "cfg": cfg,
            "service": service,
            "plan": plan,
            "is_get": is_get,
            "expected": expected,
            "model": model,
            "readback": readback,
        }

    def instrument(self, state: dict, rec: SpanRecorder) -> "QueueWaits":
        service = state["service"]
        pool = service.pool
        for kv in pool.shards:
            _instrument_store(kv.store, rec)
            rec.wrap(kv, "put_many", "kvstore.put_many", keep=int)
            rec.wrap(kv, "delete", "kvstore.delete")
            rec.wrap(kv, "get", "kvstore.get")
        for cleaner in pool.cleaners or ():
            rec.wrap(cleaner, "step", "cleaner.step", keep=int)
        rec.wrap(pool, "maintain", "pool.maintain", keep=int)
        waits = QueueWaits(service)
        rec.wrap(
            service.queue,
            "flush_shard",
            "ingest.flush_shard",
            keep=waits.flush_done,
            on_start=waits.flush_start,
        )
        rec.wrap(
            service.queue,
            "pending_value",
            "ingest.pending_value",
            keep=lambda op: op is not None,
        )
        rec.wrap(service.router, "shard_for", "router.shard_for")
        for fn in ("put", "delete", "get", "tick"):
            rec.wrap(service, fn, "service." + fn)
        return waits

    def drive(self, state: dict, rec: Optional[SpanRecorder], waits=None) -> dict:
        cfg = state["cfg"]
        service = state["service"]
        shards = service.pool.shards
        plan = state["plan"]
        put, delete, get, tick = service.put, service.delete, service.get, service.tick
        tick_every = cfg.tick_every
        lat = np.empty(len(plan))
        results: List[Optional[bytes]] = []
        failed = 0
        writes = 0
        ticks = 0
        user0 = sum(kv.store.stats.user_writes for kv in shards)
        mark = [kv.store.stats.snapshot() for kv in shards]
        after_write = waits.write_returned if waits is not None else None
        probe = HostProbe("python")
        lap = probe.lap
        every = SVC_PROBE_EVERY
        root = rec.open("bench.drive") if rec is not None else None
        for i, (kind, tenant, key, value) in enumerate(plan):
            if i % every == 0:
                lap()
            if kind == GET:
                t = _clock()
                try:
                    result = get(key, tenant)
                except Exception:
                    failed += 1
                    result = None
                lat[i] = _clock() - t
                results.append(result)
                continue
            t = _clock()
            try:
                if kind == PUT:
                    shard = put(key, value, tenant)
                else:
                    shard = delete(key, tenant)
            except Exception:
                failed += 1
                shard = None
            t1 = _clock()
            lat[i] = t1 - t
            if after_write is not None and shard is not None:
                after_write(shard, t, t1)
            writes += 1
            if writes % tick_every == 0:
                ticks += 1
                try:
                    tick()
                except Exception:
                    failed += 1
        try:
            service.flush()
            service.tick()
        except Exception:
            failed += 1
        probe.finish()
        if rec is not None:
            rec.close(root)
        windows = [kv.store.stats.window_since(m) for kv, m in zip(shards, mark)]
        state["results"] = results
        lat = probe.scale_items(lat, every)
        is_get = state["is_get"]
        return {
            "drive_s": probe.scaled_total(),
            "drive_raw_s": float(np.sum(probe.blocks)),
            "ops": len(plan),
            "attempted": len(plan) + ticks + 2,
            "failed": failed,
            "window": windows,
            "store_writes": sum(kv.store.stats.user_writes for kv in shards) - user0,
            "write_lat_s": lat[~is_get],
            "get_lat_s": lat[is_get],
            "host_factors": probe.factors(),
        }

    def read_back(self, state: dict) -> dict:
        """Read every model key after the final flush, one timed
        ``Service.get`` per key."""
        get = state["service"].get
        keys = state["readback"]
        lat = np.empty(len(keys))
        found = []
        probe = HostProbe("python")
        for i, (tenant, key) in enumerate(keys):
            if i % SVC_PROBE_EVERY == 0:
                probe.lap()
            t = _clock()
            found.append(get(key, tenant))
            lat[i] = _clock() - t
        probe.finish()
        return {
            "get_lat_s": probe.scale_items(lat, SVC_PROBE_EVERY),
            "found": found,
            "timed": self.get_share == 0.0,
        }

    def check(self, state: dict, drive: dict, reads: dict) -> List[str]:
        problems = []
        expected = state["expected"]
        results = state["results"]
        if len(results) != len(expected):
            problems.append("%d gets answered, %d planned" % (len(results), len(expected)))
        for i, (got, want) in enumerate(zip(results, expected)):
            if got != want:
                problems.append("timed get #%d returned %r, expected %r" % (i, got, want))
                break
        model = state["model"]
        for skey, got in zip(state["readback"], reads["found"]):
            if got != model[skey]:
                problems.append("read-back of %r returned %r" % (skey, got))
                break
        try:
            state["service"].pool.check_consistency()
        except AssertionError as exc:
            problems.append("check_consistency: %s" % exc)
        return problems


class QueueWaits:
    """Traced-run bookkeeping at the ingest queue: how long each write
    waited between its ``put``/``delete`` returning and the start of the
    flush that applied it, and the pool-wide GC pages each flush stalled
    behind."""

    def __init__(self, service) -> None:
        self.stores = [kv.store for kv in service.pool.shards]
        n = len(self.stores)
        self._pending: List[List[float]] = [[] for _ in range(n)]
        self._last_flush = [-1.0] * n
        self._gc_before = 0
        self.waits_s: List[float] = []
        self.stall_pages: List[int] = []
        self.flushed_ops = 0

    def _gc_total(self) -> int:
        return sum(store.stats.gc_writes for store in self.stores)

    def flush_start(self, shard: int) -> None:
        now = _clock()
        self._last_flush[shard] = now
        pending = self._pending[shard]
        self.waits_s.extend(now - t for t in pending)
        pending.clear()
        self._gc_before = self._gc_total()

    def flush_done(self, n_ops: int) -> int:
        self.stall_pages.append(self._gc_total() - self._gc_before)
        self.flushed_ops += n_ops
        return n_ops

    def write_returned(self, shard: int, t_call: float, t_return: float) -> None:
        if self._last_flush[shard] >= t_call:
            # Flushed on size inside its own call: applied before return.
            self.waits_s.append(0.0)
        else:
            self._pending[shard].append(t_return)


WORKLOADS = {
    "sim-mdc-zipf": SimWorkload(),
    "svc-put-zipf": ServiceWorkload(
        "svc-put-zipf", SVC_PUT_ZIPF, preload=False, get_share=0.0
    ),
    "svc-mixed-uniform": ServiceWorkload(
        "svc-mixed-uniform", SVC_MIXED_UNIFORM, preload=True, get_share=0.5
    ),
}
