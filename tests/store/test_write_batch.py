"""Differential equivalence of the vectorized write engine.

``write_batch`` must be *byte-identical* to per-page ``write``: the two
executions of the same update stream end in the same state digest (page
table, segment table, stats, clock — everything the testkit hashes).
The grids below cross every registered policy family with the three
synthetic distributions, plus the edge cases where the batch engine
falls back to (or splits around) the scalar path: segment boundaries,
sizes that stop fitting, rewrites inside a single batch, interleaved
trims, and errors thrown mid-batch.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.policies import available_policies, make_policy
from repro.store import (
    IN_BUFFER,
    IN_RELOCATION,
    LogStructuredStore,
    PageSizeError,
    StoreConfig,
)
from repro.testkit.trace import state_digest


def _config(sort_buffer=0):
    return StoreConfig(
        n_segments=48,
        segment_units=16,
        fill_factor=0.7,
        clean_trigger=3,
        clean_batch=3,
        sort_buffer_segments=sort_buffer,
        seed=5,
    )


def _pair(policy_name, sort_buffer=0):
    cfg = _config(sort_buffer)
    return (
        cfg,
        LogStructuredStore(cfg, make_policy(policy_name)),
        LogStructuredStore(cfg, make_policy(policy_name)),
    )


def _stream(dist, n_pages, total, seed=42):
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        pids = rng.integers(0, n_pages, size=total)
    elif dist == "hotcold":
        hot = max(1, n_pages // 10)
        coin = rng.random(total) < 0.9
        pids = np.where(
            coin,
            rng.integers(0, hot, size=total),
            rng.integers(hot, n_pages, size=total),
        )
    else:  # zipfian: heavy duplicates exercise the in-run rewrite path
        pids = np.minimum(rng.zipf(1.2, size=total) - 1, n_pages - 1)
    return np.ascontiguousarray(pids, dtype=np.int64)


def _drive_both(scalar_store, batch_store, pids, sizes=None, chunk=97):
    """Same stream through both paths, in identical chunks."""
    for start in range(0, len(pids), chunk):
        part = pids[start : start + chunk]
        part_sizes = None if sizes is None else sizes[start : start + chunk]
        for i, pid in enumerate(part):
            scalar_store.write(
                int(pid), 1 if part_sizes is None else int(part_sizes[i])
            )
        batch_store.write_batch(part, sizes=part_sizes)


def _assert_identical(scalar_store, batch_store):
    assert state_digest(scalar_store) == state_digest(batch_store)
    batch_store.check_invariants()


@pytest.mark.parametrize("policy_name", available_policies())
@pytest.mark.parametrize("dist", ["uniform", "hotcold", "zipfian"])
def test_batch_matches_scalar_all_policies(policy_name, dist):
    cfg, scalar_store, batch_store = _pair(policy_name)
    if policy_name.endswith("-opt"):
        freqs = np.linspace(0.001, 0.2, cfg.user_pages).tolist()
        scalar_store.set_oracle_frequencies(freqs)
        batch_store.set_oracle_frequencies(freqs)
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = _stream(dist, cfg.user_pages, 3000)
    _drive_both(scalar_store, batch_store, pids)
    _assert_identical(scalar_store, batch_store)


@pytest.mark.parametrize("policy_name", ["mdc", "greedy"])
def test_batch_matches_scalar_with_sort_buffer(policy_name):
    cfg, scalar_store, batch_store = _pair(policy_name, sort_buffer=2)
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = _stream("zipfian", cfg.user_pages, 3000)
    _drive_both(scalar_store, batch_store, pids)
    scalar_store.flush()
    batch_store.flush()
    _assert_identical(scalar_store, batch_store)


def test_batch_matches_scalar_variable_sizes():
    cfg, scalar_store, batch_store = _pair("mdc")
    n = cfg.user_pages // 3
    rng = np.random.default_rng(7)
    init = rng.integers(1, 3, size=n)
    for store in (scalar_store, batch_store):
        for pid in range(n):
            store.write(pid, int(init[pid]))
    pids = _stream("hotcold", n, 2500)
    sizes = rng.integers(1, 5, size=len(pids))
    _drive_both(scalar_store, batch_store, pids, sizes=sizes)
    _assert_identical(scalar_store, batch_store)


def test_batch_matches_scalar_with_interleaved_trims():
    cfg, scalar_store, batch_store = _pair("cost-benefit")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(11)
    for _ in range(25):
        pids = _stream("uniform", cfg.user_pages, 100, seed=int(rng.integers(1 << 30)))
        for i, pid in enumerate(pids):
            scalar_store.write(int(pid))
        batch_store.write_batch(pids)
        victim = int(rng.integers(0, cfg.user_pages))
        assert scalar_store.trim(victim) == batch_store.trim(victim)
    _assert_identical(scalar_store, batch_store)


def test_in_batch_rewrites_match_scalar():
    """Heavy duplication inside single batches (the in-run rewrite path:
    a page's old slot is in the very segment the run is filling)."""
    cfg, scalar_store, batch_store = _pair("greedy")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(3)
    # Batches drawn from a tiny page set: most writes repeat a page that
    # was just written a few positions earlier in the same batch.
    for _ in range(20):
        pids = rng.integers(0, 5, size=64).astype(np.int64)
        for pid in pids:
            scalar_store.write(int(pid))
        batch_store.write_batch(pids)
    _assert_identical(scalar_store, batch_store)


def test_batch_split_at_segment_boundaries():
    """Property: wherever a batch straddles seal/clean boundaries, the
    split must be invisible — any chunking of the same stream produces
    the same final state."""
    cfg = _config()
    pids = _stream("uniform", cfg.user_pages, 2000)
    digests = []
    for chunk in (1, 7, 64, cfg.segment_units, 555, len(pids)):
        store = LogStructuredStore(cfg, make_policy("greedy"))
        store.load_sequential(cfg.user_pages)
        for start in range(0, len(pids), chunk):
            store.write_batch(pids[start : start + chunk])
        digests.append(state_digest(store))
    assert len(set(digests)) == 1


def test_batch_sizes_straddling_capacity():
    """Variable sizes chosen so runs end exactly at, just below, and
    just above the open segment's remaining capacity."""
    cfg, scalar_store, batch_store = _pair("greedy")
    # Few enough pages that even at the maximum size everything still
    # fits on the device with cleaning headroom.
    n = 20
    for store in (scalar_store, batch_store):
        for pid in range(n):
            store.write(pid, 1)
    rng = np.random.default_rng(19)
    u = cfg.segment_units
    sizes = np.array(
        [u, 1, u - 1, 2, u // 2, u // 2, 1, u, 3] * 40, dtype=np.int64
    )
    pids = rng.integers(0, n, size=len(sizes)).astype(np.int64)
    _drive_both(scalar_store, batch_store, pids, sizes=sizes, chunk=9)
    _assert_identical(scalar_store, batch_store)


def test_invalid_size_fails_after_identical_prefix():
    """An oversized page mid-batch must fail exactly where the scalar
    loop fails — with every preceding write applied."""
    cfg, scalar_store, batch_store = _pair("greedy")
    scalar_store.load_sequential(cfg.user_pages)
    batch_store.load_sequential(cfg.user_pages)
    pids = np.arange(10, dtype=np.int64)
    sizes = np.ones(10, dtype=np.int64)
    sizes[6] = cfg.segment_units + 1
    with pytest.raises(PageSizeError):
        for i, pid in enumerate(pids):
            scalar_store.write(int(pid), int(sizes[i]))
    with pytest.raises(PageSizeError):
        batch_store.write_batch(pids, sizes=sizes)
    _assert_identical(scalar_store, batch_store)


def test_batch_rejects_bad_shapes():
    cfg = _config()
    store = LogStructuredStore(cfg, make_policy("greedy"))
    with pytest.raises(ValueError):
        store.write_batch(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        store.write_batch(
            np.arange(4, dtype=np.int64), sizes=np.ones(3, dtype=np.int64)
        )
    store.write_batch(np.empty(0, dtype=np.int64))  # no-op, no error
    assert store.clock == 0


def test_batch_grows_page_table():
    cfg = _config()
    store = LogStructuredStore(cfg, make_policy("greedy"))
    high = np.array([cfg.user_pages + 100, cfg.user_pages + 500], dtype=np.int64)
    store.write_batch(high)
    assert store.pages.seg[int(high[1])] >= 0


# ----------------------------------------------------------------------
# Duplicate-heavy batches through the sorting buffer
# ----------------------------------------------------------------------


def _write_both(scalar_store, batch_store, pids, sizes=None):
    for i, pid in enumerate(pids):
        scalar_store.write(int(pid), 1 if sizes is None else int(sizes[i]))
    batch_store.write_batch(pids, sizes=sizes)
    assert state_digest(scalar_store) == state_digest(batch_store)
    assert scalar_store.clean_pending == batch_store.clean_pending


@st.composite
def _buffered_dup_case(draw):
    return {
        "policy": draw(st.sampled_from(["mdc", "mdc-opt"])),
        "sort_buffer": draw(st.integers(1, 2)),
        "zipf_a": draw(st.floats(1.05, 1.5)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "sized": draw(st.booleans()),
        # Share of the working set loaded up front; the rest is first
        # written (and repeated) inside the driven batches.
        "loaded": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "batch": draw(st.integers(8, 80)),
        "n_batches": draw(st.integers(2, 10)),
        "chain": draw(st.integers(3, 6)),
        # Batch index before which a cleaning cycle is begun mid-flight
        # (-1: never).
        "clean_at": draw(st.integers(-1, 5)),
        "clean_budget": draw(st.integers(0, 4)),
    }


@settings(max_examples=60, deadline=None)
@given(case=_buffered_dup_case())
def test_buffered_duplicate_batches_match_scalar(case):
    """Sorting-buffer runs absorb repeated page ids; every batch must
    still leave the exact state the scalar loop leaves."""
    cfg, scalar_store, batch_store = _pair(
        case["policy"], case["sort_buffer"]
    )
    rng = np.random.default_rng(case["seed"])
    n = cfg.user_pages // 3 if case["sized"] else cfg.user_pages
    if case["policy"] == "mdc-opt":
        # Coarse frequencies, so the flush sort sees many ties.
        freqs = (rng.integers(0, 4, size=cfg.user_pages) * 0.05).tolist()
        scalar_store.set_oracle_frequencies(freqs)
        batch_store.set_oracle_frequencies(freqs)
    n_loaded = int(n * case["loaded"])
    if n_loaded:
        load_sizes = rng.integers(1, 3, size=n_loaded) if case["sized"] else None
        scalar_store.load_sequential(n_loaded, load_sizes)
        batch_store.load_sequential(n_loaded, load_sizes)
    # Zipf ranks over a shuffled page set, so hot pages include
    # never-written ones.
    perm = rng.permutation(n)
    for b in range(case["n_batches"]):
        ranks = np.minimum(rng.zipf(case["zipf_a"], size=case["batch"]) - 1, n - 1)
        pids = perm[ranks]
        # A chain: one page written several times in this batch.
        chain = case["chain"]
        at = np.sort(rng.choice(pids.size + chain, chain, replace=False))
        pids = np.insert(pids, at - np.arange(chain), perm[rng.integers(n)])
        sealed = scalar_store.sealed_segments()
        segs = scalar_store.segments
        has_garbage = (segs.live_units[sealed] < segs.capacity).any()
        if b == case["clean_at"] and has_garbage:
            for store in (scalar_store, batch_store):
                store.clean_begin()
                store.clean_step(case["clean_budget"])
            cur = batch_store.clean_cursor
            if cur is not None:
                rem = cur.pending[cur.pos :]
                staged = rem[batch_store.pages.seg[rem] == IN_RELOCATION][:4]
                # Each still-staged page rewritten twice in this batch.
                pids = np.concatenate((staged, pids, staged))
        pids = np.ascontiguousarray(pids, dtype=np.int64)
        sizes = rng.integers(1, 4, size=pids.size) if case["sized"] else None
        _write_both(scalar_store, batch_store, pids, sizes)
        batch_store.check_invariants()


def test_buffered_repeat_after_flush_boundary():
    """A repeat whose first occurrence was flushed earlier in the same
    batch finds the page on the device, not in the buffer."""
    cfg, scalar_store, batch_store = _pair("mdc", 1)
    cap = batch_store.buffer.capacity_units
    pids = np.array(
        [0, 1, 0, 2, 1] + list(range(3, cap)) + [cap, 0, 1, 0, cap],
        dtype=np.int64,
    )
    _write_both(scalar_store, batch_store, pids)
    assert batch_store.pages.seg[2] >= 0  # flushed
    assert batch_store.pages.seg[cap] == IN_BUFFER
    assert batch_store.pages.seg[1] == IN_BUFFER
    assert len(batch_store.buffer) == 3
    batch_store.check_invariants()


@pytest.mark.parametrize("loaded", [False, True])
def test_repeated_ids_take_one_buffered_run(loaded):
    """A batch with repeated page ids and no flush inside is consumed by
    a single buffered run."""
    cfg, scalar_store, batch_store = _pair("mdc", 2)
    if loaded:
        for store in (scalar_store, batch_store):
            store.load_sequential(cfg.user_pages)
            store.flush()
    pids = np.array([5, 7, 5, 9, 5, 7, 11, 5, 9, 5], dtype=np.int64)
    sizes = np.array([1, 2, 3, 1, 2, 2, 1, 1, 3, 2], dtype=np.int64)
    calls = []
    inner = batch_store._write_run_buffered

    def counted(run, *args):
        took = inner(run, *args)
        calls.append((run.size, took))
        return took

    batch_store._write_run_buffered = counted
    _write_both(scalar_store, batch_store, pids, sizes)
    assert calls == [(pids.size, pids.size)]
    assert batch_store.stats.user_writes == scalar_store.stats.user_writes
