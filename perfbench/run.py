"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload svc-put-zipf --seed 1 --seconds 15 --trace 0

A run repeats *rounds* while the next one is expected to end within
``--seconds`` (at least one).
Each round builds the system afresh from the seed (set-up, timed as
``setup_s``), drives the timed phase, reads every key back, and checks
the outputs; identical seeds give identical inputs, so every round of a
run does the same work and the run reports per-round medians.

Times are given at a reference host speed: each (but the sim's write
p999) is divided by the host factor measured around it by fixed slices
of reference work (``hostspeed.py``), because the host's speed drifts by
up to 2x.

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds: the traced ones
wrap the public methods of every layer's live objects (see
``tracing.py``) and give the per-layer metrics; the untraced ones give
the baseline for ``bench.trace_overhead_frac``.

The last line of standard output is the result object; the line before
it stamps the run (code version, host, sample counts).  The same stamp,
every round's figures and, for traced runs, the last traced round's
spans are written under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Measure this checkout's program, never an installed copy.
    sys.exit("perfbench: no src/repro beside %s; run from a full checkout" % HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hostspeed import HostProbe  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, frozen_gc  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Functions whose spans the traced run records, as ``<module>.<function>``.
TRACED = (
    "store.write_batch",
    "store.write",
    "store.flush",
    "store.clean",
    "store.clean_begin",
    "store.clean_step",
    "store.trim",
    "policies.select_victims",
    "policies.place_gc_batch",
    "cleaner.step",
    "pool.maintain",
    "kvstore.put_many",
    "kvstore.delete",
    "kvstore.get",
    "ingest.flush_shard",
    "ingest.pending_value",
    "router.shard_for",
    "service.put",
    "service.delete",
    "service.get",
    "service.tick",
)

#: Traced functions whose summed return value is a metric of its own.
TRACED_VALUES = {
    "cleaner.step": "pages",
    "pool.maintain": "pages",
    "kvstore.put_many": "items",
}

#: Per-layer counts that must repeat exactly from run to run.
EXACT = (
    "store.write.calls",
    "router.shard_for.calls",
    "store.gc_writes",
    "ingest.flush_stall_pages_p99",
)


#: Latency quantiles written to each round's record under ``.perfbench_out``.
REPORTED_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by nearest rank (an observed value, never an
    interpolation); 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values), q, method="inverted_cdf"))


def run_round(workload, seed: int, traced: bool) -> Dict:
    """Set up, drive, read back and check one round of ``workload``."""
    host = HostProbe("python")
    before = host.spot()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    setup_raw_s = time.perf_counter() - t0
    setup_factor = 0.5 * (before + host.spot())
    rec = waits = None
    if traced:
        rec = SpanRecorder()
        waits = workload.instrument(state, rec)
    try:
        drive = frozen_gc(lambda: workload.drive(state, rec, waits))
    finally:
        if rec is not None:
            rec.unwrap_all()
    reads = frozen_gc(lambda: workload.read_back(state))
    problems = workload.check(state, drive, reads)
    windows = drive["window"]
    if not isinstance(windows, list):
        windows = [windows]
    get_lat = drive.get("get_lat_s") if not reads["timed"] else reads["get_lat_s"]
    result = {
        "setup_s": setup_raw_s / setup_factor,
        "setup_raw_s": setup_raw_s,
        "drive_s": drive["drive_s"],
        "drive_raw_s": drive["drive_raw_s"],
        "host_factor_p50": float(np.median(drive["host_factors"])),
        "ops": drive["ops"],
        "attempted": drive["attempted"] + (len(reads["found"]) if reads["timed"] else 0),
        "failed": drive["failed"],
        "user_writes": sum(w.user_writes for w in windows),
        "gc_writes": sum(w.gc_writes for w in windows),
        "segments_cleaned": sum(w.segments_cleaned for w in windows),
        "cleaned_emptiness_sum": sum(w.cleaned_emptiness_sum for w in windows),
        "store_writes": drive["store_writes"],
        "write_lat_s": drive["write_lat_s"],
        "write_tail_lat_s": (
            drive["write_lat_s"] if workload.scale_write_tail else drive["write_raw_lat_s"]
        ),
        "get_lat_s": get_lat,
        "problems": problems,
    }
    for kind in ("write", "get"):
        lat = result[kind + "_lat_s"]
        result[kind + "_quantiles_us"] = {
            str(q): 1e6 * nearest_rank(lat, q) for q in REPORTED_QUANTILES
        }
    if rec is not None:
        result["layers"] = layer_metrics(rec, waits, result)
        result["recorder"] = rec
    return result


def layer_metrics(rec: SpanRecorder, waits, rnd: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced round."""
    spans = rec.summary()
    zero = {"calls": 0, "self_s": 0.0, "value": 0.0}

    def span(name):
        return spans.get(name, zero)

    out: Dict[str, float] = {}
    for name in TRACED:
        out[name + ".calls"] = span(name)["calls"]
        out[name + ".self_s"] = span(name)["self_s"]
        if name in TRACED_VALUES:
            out["%s.%s" % (name, TRACED_VALUES[name])] = int(span(name)["value"])
    out["store.user_writes"] = rnd["user_writes"]
    out["store.gc_writes"] = rnd["gc_writes"]
    out["store.segments_cleaned"] = rnd["segments_cleaned"]
    out["store.mean_cleaned_emptiness"] = (
        rnd["cleaned_emptiness_sum"] / rnd["segments_cleaned"]
        if rnd["segments_cleaned"]
        else 0.0
    )
    out["store.boundary_frac"] = span("store.write")["calls"] / rnd["store_writes"]
    flushes = span("ingest.flush_shard")["calls"]
    applied = span("kvstore.put_many")["value"] + span("kvstore.delete")["calls"]
    queued = waits.flushed_ops if waits is not None else 0
    out["ingest.ops_per_flush"] = applied / flushes if flushes else 0.0
    out["ingest.coalesce_frac"] = applied / queued if queued else 0.0
    stalls = waits.stall_pages if waits is not None else []
    out["ingest.flush_stall_pages_p99"] = nearest_rank(stalls, 0.99)
    qwait = waits.waits_s if waits is not None else []
    out["ingest.queue_wait_p50_ms"] = 1e3 * nearest_rank(qwait, 0.50)
    out["ingest.queue_wait_p99_ms"] = 1e3 * nearest_rank(qwait, 0.99)
    lookups = span("ingest.pending_value")
    out["ingest.pending_hit_frac"] = (
        lookups["value"] / lookups["calls"] if lookups["calls"] else 0.0
    )
    routed = sum(span("service." + fn)["calls"] for fn in ("put", "delete", "get"))
    out["router.memo_hit_frac"] = (
        1.0 - span("router.shard_for")["calls"] / routed if routed else 0.0
    )
    out["bench.drive.self_s"] = span("bench.drive")["self_s"]
    return out


def rate(rnd: Dict) -> float:
    """Client operations per second of the timed phase, at the reference
    host speed."""
    return rnd["ops"] / rnd["drive_s"]


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    """Per-round medians of the end-to-end metrics."""

    def med(fn):
        return float(np.median([fn(r) for r in rounds]))

    return {
        "setup_s": med(lambda r: r["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wamp": med(lambda r: r["gc_writes"] / r["user_writes"]),
        "ops_per_s": med(rate),
        "write_p50_us": med(lambda r: 1e6 * nearest_rank(r["write_lat_s"], 0.50)),
        "write_p999_us": med(lambda r: 1e6 * nearest_rank(r["write_tail_lat_s"], 0.999)),
        "get_p50_us": med(lambda r: 1e6 * nearest_rank(r["get_lat_s"], 0.50)),
        "get_p90_us": med(lambda r: 1e6 * nearest_rank(r["get_lat_s"], 0.90)),
    }


def per_layer(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Counts from the first traced round, times as traced-round medians,
    and the traced-vs-untraced rate gap."""
    out = dict(traced[0]["layers"])
    for key in out:
        if key.endswith("self_s") or key.endswith("_ms"):
            out[key] = float(np.median([r["layers"][key] for r in traced]))
    for key in EXACT:
        values = {r["layers"][key] for r in traced}
        if len(values) != 1:
            raise RuntimeError("%s differs between identical rounds: %s" % (key, values))
    out["bench.trace_overhead_frac"] = 1.0 - float(
        np.median([rate(r) for r in traced]) / np.median([rate(r) for r in plain])
    )
    return out


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_sha() -> Optional[str]:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's sources, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def stamp(args, rounds: List[Dict]) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if "layers" in r),
        "write_samples_per_round": len(rounds[0]["write_lat_s"]),
        "get_samples_per_round": len(rounds[0]["get_lat_s"]),
        # Unscaled figures beside the scaled ones (see hostspeed.py).
        "host_factor_p50": float(np.median([r["host_factor_p50"] for r in rounds])),
        "raw_ops_per_s": float(np.median([r["ops"] / r["drive_raw_s"] for r in rounds])),
        "raw_setup_s": float(np.median([r["setup_raw_s"] for r in rounds])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    rounds: List[Dict] = []
    t0 = time.perf_counter()
    cycles = 0
    while True:
        rounds.append(run_round(workload, args.seed, traced=False))
        if args.trace:
            rounds.append(run_round(workload, args.seed, traced=True))
        cycles += 1
        elapsed = time.perf_counter() - t0
        # Stop before a cycle that would end past the time budget.
        if elapsed * (cycles + 1) / cycles > args.seconds:
            break
    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)

    info = stamp(args, rounds)
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(base + ".json", "w") as fh:
        json.dump(
            {
                "stamp": info,
                "metrics": metrics,
                "rounds": [
                    {k: v for k, v in r.items() if isinstance(v, (int, float, list, dict))}
                    for r in rounds
                ],
            },
            fh,
            indent=1,
        )
    if traced:
        traced[-1]["recorder"].save(base + "-spans.npz")

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(declared) != set(metrics):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: missing %s, undeclared %s"
            % (sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared)))
        )
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
