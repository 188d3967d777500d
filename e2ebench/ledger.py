"""Per-layer self-time ledger for the traced run.

The ledger wraps public functions of each layer, from the benchmark's
side, and never edits the program.  A wrapped call is a frame; its self
time is its duration minus the durations of the wrapped calls it made.
Frames live on a per-thread stack, so the cluster's dispatch threads and
the service's handler threads keep their own accounting.

The wrappers cost time of their own.  The part they can see (between
their first and last clock reading, including the counting done after
a call returns) is booked under ``trace.overhead_s``; the interpreter's
call into a wrapper is not seen and lands in its caller's self time
(for the kernel layers, ``discall.loop_s``, which no layer claims).
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

OVERHEAD = "trace.overhead_s"


class Ledger:
    """Self seconds and counts per metric name, summed over threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, float]] = []
        self.marks: dict[str, float] = {}

    def _state(self) -> tuple[list[list[float]], dict[str, float]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], defaultdict(float)
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def _enter(self) -> tuple[float, list[float], float]:
        t0 = perf_counter()
        stack, _ = self._state()
        frame = [0.0]  # time spent in wrapped children
        stack.append(frame)
        return t0, frame, perf_counter()

    def _exit(self, name: str, t0: float, frame: list[float], t1: float,
              after: Callable[..., None] | None = None, *after_args: Any) -> None:
        t2 = perf_counter()
        stack, table = self._state()
        stack.pop()
        table[name] += (t2 - t1) - frame[0]
        table[name + "#calls"] += 1
        if after is not None:
            after(*after_args)
        t3 = perf_counter()
        table[OVERHEAD] += (t3 - t0) - (t2 - t1)
        if stack:
            stack[-1][0] += t3 - t0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as one frame named *name*."""
        t0, frame, t1 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0, frame, t1)

    def count(self, name: str, value: float = 1) -> None:
        self._state()[1][name] += value

    def current_frame(self) -> list[float] | None:
        stack, _ = self._state()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable[..., Any],
             after: Callable[..., None] | None = None) -> Callable[..., Any]:
        """Time *fn* as frame *name*; ``after(result, *args)`` runs as tracing overhead."""
        if after is None:
            def timed(*args: Any, **kwargs: Any) -> Any:
                t0, frame, t1 = self._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(name, t0, frame, t1)

            return timed

        def timed_after(*args: Any, **kwargs: Any) -> Any:
            t0, frame, t1 = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name, t0, frame, t1)
                raise
            self._exit(name, t0, frame, t1, after, result, *args)
            return result

        return timed_after

    def wrap_iter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a generator function: only the time inside ``next()`` counts."""

        def timed(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(fn(*args, **kwargs))
            while True:
                t0, frame, t1 = self._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(name, t0, frame, t1)
                yield item

        return timed

    def totals(self) -> dict[str, float]:
        """Every thread's table summed."""
        return _summed(self._snapshot())

    def split(self, root: str) -> tuple[dict[str, float], dict[str, float]]:
        """Sums over the threads that ran a *root* frame, and over the rest."""
        tables = self._snapshot()
        return (
            _summed(t for t in tables if root + "#calls" in t),
            _summed(t for t in tables if root + "#calls" not in t),
        )

    def _snapshot(self) -> list[dict[str, float]]:
        with self._lock:
            return [dict(table) for table in self._tables]


def _summed(tables: Iterable[dict[str, float]]) -> dict[str, float]:
    merged: dict[str, float] = defaultdict(float)
    for table in tables:
        for key, value in table.items():
            merged[key] += value
    return merged


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _module(name: str) -> Any:
    return importlib.import_module(name)


def _prefix_items(prefix: tuple[tuple[int, ...], ...]) -> int:
    return sum(len(itemset) for itemset in prefix)


def install_mining(ledger: Ledger, patches: Patches, delta: int) -> None:
    """Wrap the kernel layers: counting, partition, sorted_db/kminimum, disc.

    *delta* is the support threshold of the mines to come; the counting
    rows use it to tell frequent cells from the rest.
    """
    discall = _module("repro.core.discall")
    disc = _module("repro.core.disc")
    counting = _module("repro.core.counting")
    registry = _module("repro.mining.registry")

    # disc_all's own code: the partition loops, copying counting-array
    # results into the pattern map, the eligibility filter of each round.
    # It is the root of the kernel layers, so whatever they leave unwrapped
    # lands here; it counts as unattributed, not as a layer.
    patches.set(registry, "disc_all", ledger.wrap("discall.loop_s", registry.disc_all))
    # resume bookkeeping at every partition and DISC round boundary,
    # including the checkpoint handed to a sink (the service's journal)
    recorder = _module("repro.core.checkpoint").CheckpointRecorder
    for method in ("partition_done", "round_done"):
        patches.set(recorder, method,
                    ledger.wrap("checkpoint.record_s", getattr(recorder, method)))

    patches.set(discall, "count_frequent_items",
                ledger.wrap("counting.count_1_s", discall.count_frequent_items))
    patches.set(discall, "iterate_first_level",
                ledger.wrap_iter("partition.first_level_s", discall.iterate_first_level))
    patches.set(discall, "iterate_second_level",
                ledger.wrap_iter("partition.second_level_s", discall.iterate_second_level))

    patches.set(discall, "reduce_sequence", ledger.wrap(
        "partition.reduce_s", discall.reduce_sequence,
        lambda kept, *_: ledger.count("partition.reduce_kept", kept is not None)))
    patches.set(discall, "SortedFrequentList",
                ledger.wrap("kminimum.flist_s", discall.SortedFrequentList))

    array = counting.CountingArray
    counts = array.counts

    def cells(_: Any, self: Any, *__: Any) -> None:
        supports = counts(self).values()
        ledger.count("counting.cells", len(supports))
        ledger.count("counting.frequent_cells", sum(1 for s in supports if s >= delta))

    count_2 = ledger.wrap("counting.count_2_s", array.observe_all, cells)
    count_3 = ledger.wrap("counting.count_3_s", array.observe_all, cells)

    def observe_all(self: Any, members: Any) -> None:
        (count_2 if _prefix_items(self.prefix) == 1 else count_3)(self, members)

    patches.set(array, "observe_all", observe_all)
    patches.set(array, "counts", ledger.wrap("counting.readout_s", counts))
    patches.set(array, "frequent", ledger.wrap_iter("counting.readout_s", array.frequent))

    def kms(sdb: Any, members: Any, *_: Any) -> None:
        ledger.count("sorted_db.kms_offered", len(members))
        ledger.count("sorted_db.kms_dropped", len(members) - len(sdb))

    patches.set(disc, "KSortedDatabase", ledger.wrap("sorted_db.build_s", disc.KSortedDatabase, kms))
    patches.set(disc, "apriori_ckms_entry",
                ledger.wrap("kminimum.ckms_s", disc.apriori_ckms_entry))
    patches.set(disc, "_count_virtual_partition",
                ledger.wrap("disc.bilevel_count_s", disc._count_virtual_partition))

    def lemmas(result: Any, *_: Any) -> None:
        ledger.count("disc.comparisons", result.comparisons)
        ledger.count("disc.lemma1_frequent", len(result.frequent_k))

    patches.set(discall, "discover_frequent_k",
                ledger.wrap("disc.discover_s", discall.discover_frequent_k, lemmas))


def install_cluster(ledger: Ledger, patches: Patches) -> None:
    """Wrap the coordinator side of the sharded mine."""
    coordinator = _module("repro.cluster.coordinator")
    payload = _module("repro.cluster.payload")

    patches.set(coordinator, "count_frequent_items",
                ledger.wrap("counting.count_1_s", coordinator.count_frequent_items))

    cluster_mine = ledger.wrap("cluster.coordinate_s", coordinator.disc_all_cluster)

    def cluster_marked(*args: Any, **kwargs: Any) -> Any:
        ledger.marks["enter"] = perf_counter()
        return cluster_mine(*args, **kwargs)

    patches.set(coordinator, "disc_all_cluster", cluster_marked)

    pool_run = coordinator.WorkerPool.run

    def run_marked(self: Any, *args: Any, **kwargs: Any) -> Any:
        now = perf_counter()
        frame = ledger.current_frame()
        children = frame[0] if frame is not None else 0.0
        ledger.count("cluster.plan_s", now - ledger.marks["enter"] - children)
        return pool_run(self, *args, **kwargs)

    patches.set(coordinator.WorkerPool, "run", run_marked)

    create = ledger.wrap("cluster.payload_encode_s", payload.ShardPayload.create.__func__)
    patches.set(payload.ShardPayload, "create", classmethod(create))
    patches.set(payload.ShardPayload, "to_bytes", ledger.wrap(
        "cluster.payload_encode_s", payload.ShardPayload.to_bytes,
        lambda data, *_: ledger.count("cluster.payload_bytes", len(data))))

    def worker_time(answer: Any, *_: Any) -> None:
        ledger.count("cluster.shards")
        report = answer[1]
        if report is not None:
            ledger.count("cluster.worker_mine_s", sum(
                span.duration for span in report.spans if span.name == "shard"))

    rpc = ledger.wrap("cluster.rpc_s", coordinator.WorkerClient.mine_shard, worker_time)

    def rpc_marked(self: Any, *args: Any, **kwargs: Any) -> Any:
        ledger.marks.setdefault("first_rpc", perf_counter())
        return rpc(self, *args, **kwargs)

    patches.set(coordinator.WorkerClient, "mine_shard", rpc_marked)
    patches.set(coordinator, "decode_shard_result",
                ledger.wrap("cluster.result_decode_s", coordinator.decode_shard_result))


def install_service(ledger: Ledger, patches: Patches) -> None:
    """Wrap the service and database layers of an in-process server."""
    dbio = _module("repro.db.io")
    registry = _module("repro.service.registry")
    cache = _module("repro.service.cache")
    http = _module("repro.service.http")
    service = _module("repro.service.service")

    patches.set(dbio, "read_spmf", ledger.wrap("db.parse_s", dbio.read_spmf))
    patches.set(registry, "database_digest",
                ledger.wrap("service.digest_s", registry.database_digest))
    patches.set(cache.ResultCache, "get",
                ledger.wrap("service.cache_get_s", cache.ResultCache.get))
    patches.set(http, "job_payload", ledger.wrap("service.job_payload_s", http.job_payload))
    patches.set(service, "mine", ledger.wrap("mining.wall_s", service.mine))
