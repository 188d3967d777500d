"""Process-parallel DISC-all (system S9 scaled out).

A transport for :func:`repro.core.discall.mine_first_level`: each
first-level partition is encoded as a compact binary shard payload
(:mod:`repro.cluster.payload`, the format the cluster ships over HTTP)
and mined on a process pool; the pattern maps go back to the loop.
``processes=1`` is the inline executor: nothing crosses a process
boundary.

The cost model: each worker re-receives its partition's sequences, so
the win appears when per-partition mining dominates serialisation *and*
cores are actually available — on a single-CPU host the pool only adds
overhead (measured and noted in EXPERIMENTS.md).  The
``parallel.payload_bytes`` histogram records the shipped sizes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Generator, Iterable, Iterator

from repro.cluster.payload import ShardPayload, members_digest, mine_shard
from repro.core.discall import (
    DiscAllOutput,
    FirstLevelJob,
    Partition,
    inline_executor,
    mine_first_level,
)
from repro.core.partition import Member
from repro.core.sequence import RawSequence
from repro.obs import active


def _mine_one_partition(blob: bytes) -> dict[RawSequence, int]:
    """Worker: decode one shard payload, mine it, return its pattern map."""
    return mine_shard(ShardPayload.from_bytes(blob))


def pool_executor(
    partitions: Iterator[Partition],
    job: FirstLevelJob,
    processes: int | None,
    digest: str,
) -> Generator[tuple[int, dict[RawSequence, int]], None, None]:
    """Mine every partition on a pool of *processes* worker processes.

    *digest* stamps the payloads with their database.  Workers record
    nothing — their contextvars are fresh per process — so only the
    loop's own counters and checkpoints cover this path.
    """
    obs = active()
    options = job.options()
    payload_bytes = obs.metrics.histogram("parallel.payload_bytes")

    def encode(lam: int, group: list[Member]) -> bytes:
        blob = ShardPayload.create(
            lam, job.delta, group, job.frequent_items,
            options=options, database_digest=digest,
        ).to_bytes()
        payload_bytes.record(len(blob))
        return blob

    jobs = [(lam, encode(lam, group)) for lam, group in partitions]
    with obs.tracer.span("parallel.map", jobs=len(jobs), processes=processes):
        with ProcessPoolExecutor(max_workers=processes) as pool:
            yield from zip(
                [lam for lam, _blob in jobs],
                pool.map(_mine_one_partition, [blob for _lam, blob in jobs]),
            )


def disc_all_parallel(
    members: Iterable[Member],
    delta: int,
    processes: int | None = None,
    bilevel: bool = True,
    reduce: bool = True,
    backend: str = "table",
) -> DiscAllOutput:
    """DISC-all with first-level partitions mined in parallel processes.

    Returns the same pattern map as :func:`repro.core.discall.disc_all`
    (asserted by the tests).  *processes* defaults to the executor's
    choice; ``processes=1`` runs the inline executor without a pool,
    which keeps the function usable in restricted environments.
    """
    if processes == 1:
        return mine_first_level(
            members, delta, inline_executor, bilevel, reduce, backend
        )
    members = list(members)
    executor = partial(
        pool_executor, processes=processes, digest=members_digest(members)
    )
    return mine_first_level(members, delta, executor, bilevel, reduce, backend)
