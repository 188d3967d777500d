"""The DISC-all algorithm (system S9; Section 3, Figure 2).

DISC-all combines the four strategies of Table 5:

1. *Candidate sequence pruning* — Apriori-KMS/CKMS only consider
   k-sequences whose (k-1)-prefix is frequent;
2. *Database partitioning* — two-level partitioning by minimum 1- and
   2-sequences;
3. *Customer sequence reducing* — non-frequent 1-/2-sequences are removed
   before the second level;
4. *DISC* — from length 4 on, frequent sequences are discovered by direct
   sequence comparison, without counting non-frequent candidates.

The ``bilevel`` flag enables the virtual-partition counting of Section 3.2
(one discovery pass yields lengths k and k+1); it is on by default, as in
the paper's experiments.

The first level is one loop, :func:`mine_first_level`, whatever mines
the partitions: it hands the self-contained ``<(lam)>``-partitions to a
:data:`FirstLevelExecutor` (:func:`inline_executor` here, a process pool
in :mod:`repro.core.parallel`, HTTP workers in
:mod:`repro.cluster.coordinator`) and owns cancel, resume, the
``disc.partition`` fault site, the merge and the checkpoint boundary.

Execution statistics are not counted twice: every event reports into the
active :mod:`repro.obs` registry (the same counters ``mine(observe=True)``
snapshots into its :class:`~repro.obs.RunReport`), and
:class:`DiscAllStats` is derived from that registry afterwards.  When no
observation is active, :func:`mine_first_level` activates a private
metrics-only one so the returned statistics stay exact.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Generator, Iterable, Iterator

from repro.core.cancel import active_token
from repro.core.checkpoint import CheckpointRecorder, active_recorder
from repro.core.counting import CountingArray, count_frequent_items
from repro.core.disc import discover_frequent_k
from repro.core.kminimum import SortedFrequentList
from repro.core.partition import (
    Member,
    iterate_first_level,
    iterate_second_level,
    reduce_sequence,
)
from repro.core.sequence import RawSequence, seq_length
from repro.faults import fault_point
from repro.obs import MetricsRegistry, activated, active, stats_observation


@dataclass(slots=True)
class DiscAllStats:
    """Execution counters exposed for the ablation studies.

    A read-out of the observability registry: each field mirrors one
    counter (summed across labels), captured as a before/after delta so
    several runs can share one registry.
    """

    first_level_partitions: int = 0
    second_level_partitions: int = 0
    disc_rounds: int = 0
    disc_comparisons: int = 0
    reduced_members: int = 0

    #: registry counter backing each field
    COUNTERS: ClassVar[dict[str, str]] = {
        "first_level_partitions": "discall.first_level_mined",
        "second_level_partitions": "discall.second_level_mined",
        "disc_rounds": "disc.rounds",
        "disc_comparisons": "disc.comparisons",
        "reduced_members": "discall.reduced_members",
    }

    @classmethod
    def baseline(cls, metrics: MetricsRegistry) -> dict[str, int]:
        """Current totals of the backing counters (the 'before' state)."""
        return {
            field_name: metrics.counter_total(counter_name)
            for field_name, counter_name in cls.COUNTERS.items()
        }

    @classmethod
    def since(
        cls, metrics: MetricsRegistry, baseline: dict[str, int]
    ) -> "DiscAllStats":
        """Stats accumulated in *metrics* since *baseline* was captured."""
        return cls(**{
            field_name: metrics.counter_total(counter_name)
            - baseline.get(field_name, 0)
            for field_name, counter_name in cls.COUNTERS.items()
        })


@dataclass(slots=True)
class DiscAllOutput:
    """Frequent pattern map plus execution statistics."""

    patterns: dict[RawSequence, int] = field(default_factory=dict)
    stats: DiscAllStats = field(default_factory=DiscAllStats)


#: one first-level partition: its key item and member sequences
Partition = tuple[int, list[Member]]

#: a transport: mines ``(lam, group)`` partitions anywhere, in any order,
#: and yields ``(lam, patterns)`` with each partition's k >= 2 patterns
FirstLevelExecutor = Callable[
    [Iterator[Partition], "FirstLevelJob"],
    Generator[tuple[int, dict[RawSequence, int]], None, None],
]


@dataclass(frozen=True, slots=True)
class FirstLevelJob:
    """What every first-level partition of one run is mined with.

    The same fields a :class:`~repro.cluster.payload.ShardPayload`
    carries besides its partition, so a shard mines exactly as here.
    """

    delta: int
    frequent_items: frozenset[int]
    bilevel: bool
    reduce: bool
    backend: str

    def options(self) -> dict[str, object]:
        """The miner options a shard payload carries."""
        return {"backend": self.backend, "bilevel": self.bilevel, "reduce": self.reduce}

    def mine(self, lam: int, group: list[Member]) -> dict[RawSequence, int]:
        """Steps 2.1.1-2.1.3: the k >= 2 patterns of one <(lam)>-partition."""
        anchor: RawSequence = ((lam,),)
        obs = active()
        metrics = obs.metrics
        patterns: dict[RawSequence, int] = {}

        # Step 2.1.1: frequent 2-sequences via the counting array (Figure 3).
        array = CountingArray(anchor)
        array.observe_all(group)
        frequent_pairs = set()
        found_pairs = 0
        # repro: allow[FLOW002] — bounded by the counting array's result;
        # cancellation polls once per partition in the caller
        for pattern, count in array.frequent(self.delta):
            patterns[pattern] = count
            found_pairs += 1
        metrics.counter("counting.frequent", k=2).add(found_pairs)
        # repro: allow[FLOW002] — bounded by the pair-count table
        for pair, count in array.counts().items():
            if count >= self.delta:
                frequent_pairs.add(pair)

        # Step 2.1.2: reduce sequences and build second-level partitions.
        reduced: list[Member] = []
        # repro: allow[FLOW002] — one reduction pass over this partition's
        # members; per-partition granularity is the checkpoint contract
        for cid, seq in group:
            if self.reduce:
                shorter = reduce_sequence(
                    seq, lam, self.frequent_items, frequent_pairs
                )
            else:
                shorter = seq if seq_length(seq) >= 3 else None
            if shorter is not None:
                reduced.append((cid, shorter))
        metrics.counter("discall.reduced_members").add(len(reduced))

        # Step 2.1.3: second-level partitions in ascending order.  Only
        # frequent 2-sequence keys can yield longer frequent sequences.
        mined = metrics.counter("discall.second_level_mined")
        for key, sp_group in iterate_second_level(reduced, lam, frequent_pairs):
            mined.add(1)
            _process_second_level(
                key, sp_group, self.delta, self.bilevel, self.backend, patterns
            )
        return patterns


def inline_executor(
    partitions: Iterator[Partition], job: FirstLevelJob
) -> Generator[tuple[int, dict[RawSequence, int]], None, None]:
    """Mine each partition on the calling thread, in the order given."""
    tracer = active().tracer
    for lam, group in partitions:
        with tracer.span("partition", lam=lam, size=len(group)):
            patterns = job.mine(lam, group)
        yield lam, patterns


def disc_all(
    members: Iterable[Member],
    delta: int,
    bilevel: bool = True,
    reduce: bool = True,
    backend: str = "table",
) -> DiscAllOutput:
    """Mine every frequent sequence with the DISC-all algorithm.

    *members* are ``(cid, sequence)`` pairs; *delta* is the minimum
    support count (a pattern is frequent when support >= delta).  *reduce*
    can disable customer sequence reducing and *backend* swaps the
    k-sorted-database index, both for the ablation benchmarks.
    Returns the pattern -> support map and execution statistics.
    """
    return mine_first_level(members, delta, inline_executor, bilevel, reduce, backend)


def mine_first_level(
    members: Iterable[Member],
    delta: int,
    executor: FirstLevelExecutor,
    bilevel: bool = True,
    reduce: bool = True,
    backend: str = "table",
) -> DiscAllOutput:
    """DISC-all's first level (Figure 2, steps 1-2.2), mined by *executor*.

    Every partition *executor* mines is merged, counted and recorded as
    a checkpoint boundary here, on the calling thread; the executor's
    generator is closed when the loop stops early.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    obs = active()
    if not obs.enabled:
        # Nobody is observing: back the returned stats with a private
        # observation materialising only the DiscAllStats counters —
        # every other metric and span stays the shared no-op singletons.
        with activated(stats_observation(DiscAllStats.COUNTERS.values())):
            return mine_first_level(
                members, delta, executor, bilevel, reduce, backend
            )
    members = list(members)
    out = DiscAllOutput()
    metrics = obs.metrics
    baseline = DiscAllStats.baseline(metrics)

    # Step 1(a): one scan finds the frequent 1-sequences.
    frequent_items = count_frequent_items(members, delta)
    metrics.counter("counting.frequent", k=1).add(len(frequent_items))
    # repro: allow[FLOW002] — one pass over the already-counted frequent
    # 1-sequences; cancellation polls at the partition loops below
    for item, count in frequent_items.items():
        out.patterns[((item,),)] = count
    job = FirstLevelJob(delta, frozenset(frequent_items), bilevel, reduce, backend)

    # Steps 1(b)-2.2.  The cancel token is polled as each partition is
    # handed out and as each comes back; the recorder snapshots when one
    # is merged.
    token = active_token()
    recorder = active_recorder()
    recorder.attach(out.patterns)
    mined = metrics.counter("discall.first_level_mined")
    pending = _pending_partitions(members, job.frequent_items, recorder)
    with closing(executor(pending, job)) as results:
        for lam, patterns in results:
            token.checkpoint()
            fault_point("disc.partition")
            out.patterns.update(patterns)
            mined.add(1)
            recorder.partition_done(lam, patterns)
    out.stats = DiscAllStats.since(metrics, baseline)
    return out


def _pending_partitions(
    members: list[Member],
    frequent_items: frozenset[int],
    recorder: CheckpointRecorder,
) -> Iterator[Partition]:
    """The frequent partitions a run still has to mine, in ascending order.

    Partitions a resumed run already finished are skipped; the generator
    still reassigns their members to later minima (Step 2.2).
    """
    token = active_token()
    for lam, group in iterate_first_level(members):
        if lam not in frequent_items:
            continue  # Step 2.1 guard: mine only frequent partition keys
        if recorder.should_skip(lam):
            continue  # already mined by the run this one resumes
        token.checkpoint()
        yield lam, group


def _process_second_level(
    key: RawSequence,
    sp_group: list[Member],
    delta: int,
    bilevel: bool,
    backend: str,
    patterns: dict[RawSequence, int],
) -> None:
    """Steps 2.1.3.1-2.1.3.2: one <(lam1 lam2)>-partition into *patterns*."""
    if len(sp_group) < delta:
        return
    obs = active()
    metrics = obs.metrics

    # Step 2.1.3.1: frequent 3-sequences via the counting array.
    array = CountingArray(key)
    array.observe_all(sp_group)
    frequent_k = {pattern: count for pattern, count in array.frequent(delta)}
    metrics.counter("counting.frequent", k=3).add(len(frequent_k))
    # repro: allow[FLOW002] — bounded copy of the k=3 result table; the
    # k>=4 while-loop below polls the cancel token every round
    for pattern, count in frequent_k.items():
        patterns[pattern] = count

    # Step 2.1.3.2: DISC from k = 4 (stepping by 2 under bi-level).
    rounds = metrics.counter("disc.rounds")
    token = active_token()
    recorder = active_recorder()
    k = 4
    while frequent_k:
        token.checkpoint()
        fault_point("disc.round")
        flist = SortedFrequentList(frequent_k)
        eligible = [(cid, seq) for cid, seq in sp_group if seq_length(seq) >= k]
        if len(eligible) < delta:
            break
        rounds.add(1)
        with obs.tracer.span("discover_k", k=k, eligible=len(eligible)):
            result = discover_frequent_k(
                eligible, flist, delta, bilevel=bilevel, backend=backend, k=k
            )
        for pattern, count in result.frequent_k.items():
            patterns[pattern] = count
        if bilevel:
            for pattern, count in result.frequent_k_plus_1.items():
                patterns[pattern] = count
            frequent_k = result.frequent_k_plus_1
            recorder.round_done(k + 1)
            k += 2
        else:
            frequent_k = result.frequent_k
            recorder.round_done(k)
            k += 1
