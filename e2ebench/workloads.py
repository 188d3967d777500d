"""The four workloads, each as ``run(seed, seconds, trace, root) -> Outcome``.

Every workload repeats whole rounds of the same operations until its
time is up, checks every result, and reports all end-to-end metrics
(``trace=False``) or all per-layer metrics (``trace=True``).  Metrics a
workload does not exercise read 0 in the per-layer set; every
end-to-end metric has a meaning, and a non-zero value, on every
workload (README.md, "End-to-end metrics").
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import datagen
import oracle
from ledger import OVERHEAD, Ledger, Patches, install_cluster, install_mining, install_service
from percentiles import median

from repro import SequenceDatabase, mine
from repro.db import io as dbio
from repro.mining.serialize import save_result

#: mine-deep: long, lightly corrupted potential patterns; at 15% support
#: patterns reach length 7 and DISC (discover_k with its k-sorted
#: database and CKMS) takes about two thirds of a traced mine.
DEEP = datagen.Shape(ncust=100, slen=10, tlen=3, nitems=1000, patlen=8, npats=20,
                     table_seed=1, draw_seed=1, corrupt_mean=0.3)
DEEP_SUPPORT = 0.15
#: mine-wide: the paper's fig8 shape (1000 items, 500
#: short potential patterns, Quest's default corruption); patterns stop
#: at length 3, so DISC makes a few dozen comparisons per mine.
WIDE = datagen.Shape(ncust=1000, slen=10, tlen=2.5, nitems=1000, patlen=4, npats=500,
                     table_seed=3, draw_seed=3)
WIDE_SUPPORT = 0.015
#: serve-mixed and cluster-loopback: the same shape with 150 customers.
#: A cold mine in the server, beside a stream of cache hits, and a
#: sharded mine both cost several times an inline one; at this size a
#: run still holds a dozen or more of them.
SMALL = dataclasses.replace(WIDE, ncust=150)
SMALL_SUPPORT = 0.03
#: serve-mixed re-registers one name with these many contents in turn
SERVE_VARIANTS = 3
#: set-up is repeated at least this many times, and until it has taken
#: SETUP_SECONDS in all, and its median reported
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: serve-mixed polls a running job this often
POLL_SECONDS = 0.005


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    ledger: dict[str, tuple[float, float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.correct = False
        self.failures.append(message)


def _patterns(result: Any) -> dict[oracle.Pattern, int]:
    return {tuple(tuple(t) for t in raw): count for raw, count in result.patterns.items()}


def _more_setups(setups: list[float]) -> bool:
    return len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS


def _plain_seconds(seconds: float, trace: bool) -> float:
    """The untraced window: all of *seconds*, or the first half of a traced run."""
    return seconds / 2 if trace else seconds


def _ru_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s", "mine_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "hit_p50_ms": "ms", "register_p50_ms": "ms",
}

PER_LAYER_UNITS: dict[str, str] = {
    "counting.count_1_s": "s", "counting.count_2_s": "s", "counting.count_3_s": "s",
    "counting.readout_s": "s",
    "counting.cells": "count", "counting.frequent_cells": "count",
    "counting.useful_ratio": "ratio",
    "partition.first_level_s": "s", "partition.reduce_s": "s",
    "partition.second_level_s": "s", "partition.reduce_keep_ratio": "ratio",
    "sorted_db.build_s": "s", "kminimum.ckms_s": "s", "kminimum.flist_s": "s",
    "sorted_db.kms_drop_ratio": "ratio",
    "disc.discover_s": "s", "disc.bilevel_count_s": "s", "disc.comparisons": "count",
    "disc.lemma1_frequent": "count", "disc.lemma2_prunes": "count",
    "disc.lemma1_ratio": "ratio",
    "discall.loop_s": "s", "checkpoint.record_s": "s",
    "mining.patterns": "count", "mining.unattributed_s": "s",
    "cluster.plan_s": "s", "cluster.first_dispatch_s": "s",
    "cluster.payload_encode_s": "s", "cluster.payload_bytes": "bytes",
    "cluster.shards": "count", "cluster.rpc_s": "s", "cluster.worker_mine_s": "s",
    "cluster.rpc_overhead_s": "s", "cluster.result_decode_s": "s",
    "cluster.worker_idle_ratio": "ratio",
    "service.queue_wait_ms": "ms", "service.run_ms": "ms", "service.poll_count": "count",
    "http.fetch_ms": "ms", "http.result_bytes": "bytes", "db.parse_s": "s",
    "service.digest_s": "s", "service.cache_get_s": "s", "service.job_payload_s": "s",
    "service.cache_hit_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

#: self time that no named layer claims: the root frame of a mine, and
#: ``disc_all``'s own loops together with the interpreter's calls into
#: the wrappers it makes (``discall.loop_s``, reported apart as well)
UNATTRIBUTED = ("mining.wall_s", "discall.loop_s")

#: ledger rows: layer -> the self-time entries it sums
LAYERS: dict[str, tuple[str, ...]] = {
    "core.counting": ("counting.count_1_s", "counting.count_2_s", "counting.count_3_s",
                      "counting.readout_s"),
    "core.partition": ("partition.first_level_s", "partition.reduce_s",
                       "partition.second_level_s"),
    "core.sorted_db": ("sorted_db.build_s",),
    "core.kminimum": ("kminimum.ckms_s", "kminimum.flist_s"),
    "core.disc": ("disc.discover_s", "disc.bilevel_count_s"),
    "core.checkpoint": ("checkpoint.record_s",),
    "cluster": ("cluster.coordinate_s", "cluster.payload_encode_s", "cluster.rpc_s",
                "cluster.result_decode_s"),
    "service": ("service.digest_s", "service.cache_get_s", "service.job_payload_s"),
    "db": ("db.parse_s",),
    "tracing": (OVERHEAD,),
}


def _end_to_end(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    assert values.keys() == END_TO_END_UNITS.keys()
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    assert values.keys() == PER_LAYER_UNITS.keys()
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: per-layer metrics that are ledger totals divided by the number of mines
PER_MINE = (
    "counting.count_1_s", "counting.count_2_s", "counting.count_3_s", "counting.readout_s",
    "counting.cells", "counting.frequent_cells", "partition.first_level_s",
    "partition.reduce_s", "partition.second_level_s", "sorted_db.build_s", "kminimum.ckms_s",
    "kminimum.flist_s", "disc.discover_s", "disc.bilevel_count_s", "disc.comparisons",
    "disc.lemma1_frequent", "discall.loop_s", "checkpoint.record_s", "cluster.plan_s",
    "cluster.first_dispatch_s", "cluster.payload_encode_s", "cluster.payload_bytes",
    "cluster.shards", "cluster.rpc_s", "cluster.worker_mine_s", "cluster.result_decode_s",
)
#: per-layer metrics that are mean seconds per call of the wrapped function
PER_CALL = ("db.parse_s", "service.digest_s", "service.cache_get_s", "service.job_payload_s")


def layer_metrics(
    totals: dict[str, float], mines: int, wall_per_mine: float, extra: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics from ledger totals; *extra* supplies the client-side ones."""
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in PER_MINE:
        values[name] = _ratio(totals.get(name, 0.0), mines)
    for name in PER_CALL:
        values[name] = _ratio(totals.get(name, 0.0), totals.get(name + "#calls", 0.0))
    comparisons, lemma1 = values["disc.comparisons"], values["disc.lemma1_frequent"]
    worker_mine = values["cluster.worker_mine_s"]
    values.update({
        "counting.useful_ratio": _ratio(values["counting.frequent_cells"],
                                        values["counting.cells"]),
        "partition.reduce_keep_ratio": _ratio(totals.get("partition.reduce_kept", 0.0),
                                              totals.get("partition.reduce_s#calls", 0.0)),
        "sorted_db.kms_drop_ratio": _ratio(totals.get("sorted_db.kms_dropped", 0.0),
                                           totals.get("sorted_db.kms_offered", 0.0)),
        "disc.lemma2_prunes": comparisons - lemma1,
        "disc.lemma1_ratio": _ratio(lemma1, comparisons),
        "mining.unattributed_s": _ratio(sum(totals.get(k, 0.0) for k in UNATTRIBUTED), mines),
    })
    if worker_mine:
        values["cluster.rpc_overhead_s"] = values["cluster.rpc_s"] - worker_mine
        values["cluster.worker_idle_ratio"] = 1 - _ratio(worker_mine, wall_per_mine)
    values.update(extra)
    return values


def ledger_rows(ledger: Ledger, mines: int, wall_per_mine: float,
                ) -> dict[str, tuple[float, float]]:
    """Per layer: self seconds per mine on the mining thread, and on other threads.

    Other threads (cluster dispatch, service handlers) overlap the mining
    thread, so only the first column of the layers and ``unattributed``
    adds up to the wall time.
    """
    mining, other = ledger.split("mining.wall_s")
    per = max(mines, 1)
    rows = {
        layer: (sum(mining.get(k, 0.0) for k in keys) / per,
                sum(other.get(k, 0.0) for k in keys) / per)
        for layer, keys in LAYERS.items()
    }
    rows["unattributed"] = (sum(mining.get(k, 0.0) for k in UNATTRIBUTED) / per, 0.0)
    rows["  of which disc_all's own code"] = (mining.get("discall.loop_s", 0.0) / per, 0.0)
    rows["wall"] = (wall_per_mine, 0.0)
    return rows


def _tracing(ledger: Ledger, patches: Patches, delta: int, service: bool = False) -> None:
    install_mining(ledger, patches, delta)
    install_cluster(ledger, patches)
    if service:
        install_service(ledger, patches)


# -- in-process mining: mine-deep, mine-wide -----------------------------------


def _load(text: str) -> Any:
    db = dbio.read_spmf(io.StringIO(text))
    db.content_digest()
    return db


def _serialise(result: Any) -> int:
    buffer = io.StringIO()
    save_result(result, buffer)
    return len(buffer.getvalue())


def run_mine(shape: datagen.Shape, support: float, algorithm: str, seed: int,
             seconds: float, trace: bool, prepare: Callable[[], Callable[[], None]] | None = None,
             rss: Callable[[], float] = _ru_maxrss_mb) -> Outcome:
    """Rounds of load -> mine -> serialise on one database.

    *prepare* starts whatever the algorithm needs (a worker) and returns
    its stop function; it is part of set-up.  *rss* reads the peak RSS of
    the processes that mine.
    """
    outcome = Outcome()
    setups: list[float] = []
    stop: Callable[[], None] | None = None
    rss_before: float | None = None
    try:
        while _more_setups(setups):
            if stop is not None:
                stop()
                stop = None
            # drop the last copy first, so the high-water mark holds one
            sequences = text = db = None
            started = perf_counter()
            sequences = datagen.generate(shape, seed)
            text = datagen.to_spmf(sequences)
            db = _load(text)
            if prepare is not None:
                stop = prepare()
            if rss_before is None or prepare is not None:
                rss_before = rss()  # the mining process has not mined yet
            mine(db, support, algorithm=algorithm)
            setups.append(perf_counter() - started)
        delta = db.delta_for(support)

        def rounds(duration: float, ledger: Ledger | None) -> tuple[dict[str, list[float]], Any]:
            """Samples per operation, and the first mine's result."""
            samples: dict[str, list[float]] = {"register": [], "mine": [], "hit": []}
            first = None
            deadline = perf_counter() + duration
            while not samples["mine"] or perf_counter() < deadline:
                t0 = perf_counter()
                loaded = _load(text)
                t1 = perf_counter()
                if ledger is None:
                    result = mine(loaded, support, algorithm=algorithm)
                else:
                    ledger.marks.clear()
                    with ledger.span("mining.wall_s"):
                        result = mine(loaded, support, algorithm=algorithm)
                    if "first_rpc" in ledger.marks:
                        ledger.count("cluster.first_dispatch_s",
                                     ledger.marks["first_rpc"] - ledger.marks["enter"])
                t2 = perf_counter()
                _serialise(result)
                t3 = perf_counter()
                outcome.attempted += 3
                samples["register"].append(t1 - t0)
                samples["mine"].append(t2 - t1)
                samples["hit"].append(t3 - t2)
                if first is None:
                    first = result
                elif result.patterns != first.patterns:
                    outcome.fail("a repeated mine returned a different pattern map")
            return samples, first

        plain, first = rounds(_plain_seconds(seconds, trace), None)
        peak = rss() - rss_before
        if not trace:
            busy = sum(sum(values) for values in plain.values())
            outcome.metrics = _end_to_end({
                "setup_s": median(setups),
                "mine_s": median(plain["mine"]),
                "peak_rss_mb": peak,
                "ops_per_s": 3 * len(plain["mine"]) / busy,
                "hit_p50_ms": median(plain["hit"]) * 1000,
                "register_p50_ms": median(plain["register"]) * 1000,
            })
        else:
            ledger, patches = Ledger(), Patches()
            _tracing(ledger, patches, delta)
            try:
                traced, traced_first = rounds(seconds / 2, ledger)
            finally:
                patches.restore()
            if traced_first.patterns != first.patterns:
                outcome.fail("the traced mine returned a different pattern map")
            totals = ledger.totals()
            mines = len(traced["mine"])
            wall = sum(traced["mine"]) / mines
            values = layer_metrics(totals, mines, wall, {
                "mining.patterns": float(len(first.patterns)),
                "obs.trace_overhead_ratio": median(traced["mine"]) / median(plain["mine"]),
            })
            outcome.metrics = _per_layer(values)
            outcome.ledger = ledger_rows(ledger, mines, wall)
        if algorithm != "disc-all":
            inline = mine(db, support, algorithm="disc-all")
            if inline.patterns != first.patterns:
                outcome.fail(f"{algorithm} differs from inline disc-all on the same database")
        for failure in oracle.check(sequences, delta, _patterns(first), seed=seed):
            outcome.fail(failure)
    finally:
        if stop is not None:
            stop()
    return outcome


def mine_deep(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    return run_mine(DEEP, DEEP_SUPPORT, "disc-all", seed, seconds, trace)


def mine_wide(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    return run_mine(WIDE, WIDE_SUPPORT, "disc-all", seed, seconds, trace)


# -- cluster-loopback ------------------------------------------------------------


def cluster_loopback(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    from repro.cluster.coordinator import WorkerPool, register_cluster_algorithm
    from servers import ServerProcess

    state: dict[str, Any] = {}

    def prepare() -> Callable[[], None]:
        worker = ServerProcess(root, "--role", "worker")
        pool = WorkerPool([worker.url], degrade=False)
        register_cluster_algorithm(pool)
        state["worker"] = worker

        def stop() -> None:
            pool.close()
            worker.stop()

        return stop

    # Coordinator and worker share one CPU: the worker inherits this
    # process's affinity, and so do the pool's dispatch threads.  With one
    # worker the sharded mine is a ping-pong of RPCs; across two vCPUs of a
    # shared host each hand-off waits for the host to wake the idle vCPU,
    # which spread the mine time twice as wide as on one CPU (README.md).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return run_mine(SMALL, SMALL_SUPPORT, "disc-all-cluster", seed, seconds, trace,
                        prepare=prepare,
                        rss=lambda: _ru_maxrss_mb() + state["worker"].peak_rss_mb())
    finally:
        os.sched_setaffinity(0, cpus)


# -- serve-mixed -----------------------------------------------------------------


@dataclass
class _Variant:
    sequences: list[oracle.Pattern]
    text: str
    patterns: list[Any] | None = None  # the service's pattern list, once checked


class _Server:
    """A ``repro serve`` child, or the same service hosted in this process."""

    def __init__(self, root: Path, in_process: bool) -> None:
        self.process = None
        if in_process:
            from repro.service import MiningService
            from repro.service.http import make_server

            self.service = MiningService(workers=1)
            self.httpd = make_server(self.service, host="127.0.0.1", port=0)
            self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
            self.thread.start()
            host, port = self.httpd.server_address[:2]
            self.url = f"http://{host}:{port}"
        else:
            from servers import ServerProcess

            self.process = ServerProcess(root, "--workers", "1")
            self.url = self.process.url

    def peak_rss_mb(self) -> float:
        return self.process.peak_rss_mb() if self.process else _ru_maxrss_mb()

    def stop(self) -> None:
        if self.process is not None:
            self.process.stop()
            return
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        self.service.close()


def _mine_cycle(client: Any, database: str, delta: int, stats: dict[str, list[float]],
                ) -> tuple[float, dict[str, Any]]:
    """POST /mine, poll until done, GET the full result; returns (seconds, job)."""
    started = perf_counter()
    submitted = client.json("POST", "/mine", {"database": database, "min_support": delta})
    job_id = submitted["job_id"]
    polls = 0
    if submitted["status"] != "done":
        while True:
            time.sleep(POLL_SECONDS)
            polls += 1
            status = client.json("GET", f"/jobs/{job_id}?top=0")["status"]
            if status == "done":
                break
            if status not in ("queued", "running"):
                raise RuntimeError(f"job {job_id} ended {status}")
    fetch_started = perf_counter()
    code, body = client.call("GET", f"/jobs/{job_id}")
    finished = perf_counter()
    if code != 200:
        raise RuntimeError(f"GET /jobs/{job_id} answered {code}")
    stats["fetch"].append(finished - fetch_started)
    stats["bytes"].append(len(body))
    if submitted["status"] != "done":
        stats["polls"].append(polls)
    return finished - started, json.loads(body)


def serve_mixed(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    from servers import Client

    outcome = Outcome()
    setups: list[float] = []
    server: _Server | None = None
    try:
        while _more_setups(setups):
            if server is not None:
                server.stop()
                server = None
            started = perf_counter()
            hot = datagen.generate(SMALL, seed)
            variants = [
                _Variant(s, datagen.to_spmf(s))
                for s in (datagen.generate(SMALL, seed * SERVE_VARIANTS + 1 + j)
                          for j in range(SERVE_VARIANTS))
            ]
            hot_text = datagen.to_spmf(hot)
            server = _Server(root, in_process=trace)
            rss_before = server.peak_rss_mb()
            setup_client = Client(server.url)
            setup_client.json("POST", "/databases", {"name": "hot", "content": hot_text})
            delta = SequenceDatabase.from_raw(hot).delta_for(SMALL_SUPPORT)
            _, hot_job = _mine_cycle(setup_client, "hot", delta,
                                        {"fetch": [], "bytes": [], "polls": []})
            setup_client.close()
            setups.append(perf_counter() - started)
            # the server keeps every finished job's result, so a peak taken
            # after the window would grow with the jobs a faster server runs
            peak = server.peak_rss_mb() - rss_before
        assert server is not None
        hot_patterns = hot_job["result"]["patterns"]
        _check_cold_jobs(outcome, [_Variant(hot, hot_text)], [(0, hot_job)], delta, seed)
        # one count across windows: consecutive registrations must differ,
        # or the second finds the first one's result still cached
        cycles = itertools.count()

        def window(duration: float) -> dict[str, Any]:
            stats: dict[str, Any] = {key: [] for key in (
                "register", "cold", "hit", "fetch", "bytes", "polls", "queue", "run")}
            stats["cold_jobs"] = []
            stats["errors"] = []
            stats["requests"] = 0
            deadline = perf_counter() + duration

            def writer() -> None:
                client = Client(server.url)
                try:
                    while perf_counter() < deadline:
                        cycle = next(cycles)
                        variant = variants[cycle % SERVE_VARIANTS]
                        t0 = perf_counter()
                        client.json("POST", "/databases", {"name": "churn", "content": variant.text})
                        stats["register"].append(perf_counter() - t0)
                        elapsed, job = _mine_cycle(client, "churn", delta, stats)
                        if job.get("cached"):
                            raise RuntimeError("a mine after re-registration was served from cache")
                        stats["cold"].append(elapsed)
                        stats["queue"].append(job["queue_wait_seconds"])
                        stats["run"].append(job["run_seconds"])
                        stats["cold_jobs"].append((cycle % SERVE_VARIANTS, job))
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    stats["errors"].append(f"writer: {exc!r}")
                finally:
                    stats["requests"] += client.requests
                    client.close()

            def reader() -> None:
                client = Client(server.url)
                try:
                    while perf_counter() < deadline:
                        elapsed, job = _mine_cycle(client, "hot", delta, stats)
                        stats["hit"].append(elapsed)
                        if not job.get("cached"):
                            raise RuntimeError("a repeated mine missed the cache")
                        if job["result"]["patterns"] != hot_patterns:
                            raise RuntimeError("a cache hit returned another pattern list")
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    stats["errors"].append(f"reader: {exc!r}")
                finally:
                    stats["requests"] += client.requests
                    client.close()

            started = perf_counter()
            threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats["wall"] = perf_counter() - started
            return stats

        plain = window(_plain_seconds(seconds, trace))
        stats = plain
        if trace:
            ledger, patches = Ledger(), Patches()
            _tracing(ledger, patches, delta, service=True)
            try:
                stats = window(seconds / 2)
            finally:
                patches.restore()
        for run in (plain, stats) if trace else (plain,):
            outcome.attempted += run["requests"] + len(run["errors"])
            outcome.failed += len(run["errors"])
            outcome.failures.extend(run["errors"])
            _check_cold_jobs(outcome, variants, run["cold_jobs"], delta, seed)
            if not run["cold"] or not run["hit"]:
                outcome.fail("a connection completed no cycle")
                return outcome
        if not trace:
            outcome.metrics = _end_to_end({
                "setup_s": median(setups),
                "mine_s": median(plain["cold"]),
                "peak_rss_mb": peak,
                "ops_per_s": plain["requests"] / plain["wall"],
                "hit_p50_ms": median(plain["hit"]) * 1000,
                "register_p50_ms": median(plain["register"]) * 1000,
            })
        else:
            hits, mines = len(stats["hit"]), len(stats["cold"])
            wall = sum(stats["run"]) / mines
            values = layer_metrics(ledger.totals(), mines, wall, {
                "mining.patterns": float(len(hot_patterns)),
                "service.queue_wait_ms": median(stats["queue"]) * 1000,
                "service.run_ms": median(stats["run"]) * 1000,
                "service.poll_count": sum(stats["polls"]) / len(stats["polls"]),
                "http.fetch_ms": median(stats["fetch"]) * 1000,
                "http.result_bytes": sum(stats["bytes"]) / len(stats["bytes"]),
                "service.cache_hit_ratio": hits / (hits + mines),
                "obs.trace_overhead_ratio": median(stats["cold"]) / median(plain["cold"]),
            })
            outcome.metrics = _per_layer(values)
            outcome.ledger = ledger_rows(ledger, mines, wall)
    finally:
        if server is not None:
            server.stop()
    return outcome


def _check_cold_jobs(outcome: Outcome, variants: list[_Variant],
                     jobs: list[tuple[int, dict[str, Any]]], delta: int, seed: int) -> None:
    """Oracle once per registered content; equality with it for every later result."""
    for index, job in jobs:
        variant = variants[index]
        patterns = job["result"]["patterns"]
        if variant.patterns is None:
            reported = {oracle.parse_pattern(p["pattern"]): p["support"] for p in patterns}
            for failure in oracle.check(variant.sequences, delta, reported, seed=seed):
                outcome.fail(f"content {index}: {failure}")
            variant.patterns = patterns
        elif patterns != variant.patterns:
            outcome.fail(f"content {index}: a cold mine returned another pattern list")


WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "mine-deep": mine_deep,
    "mine-wide": mine_wide,
    "serve-mixed": serve_mixed,
    "cluster-loopback": cluster_loopback,
}
