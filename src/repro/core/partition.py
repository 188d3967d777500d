"""Multi-level partitioning (system S8; Section 3.1, Figure 2 steps 1-2.2).

First-level partitions group customer sequences by their *minimum
1-sequence* (smallest item); second-level partitions group the *reduced*
sequences of a first-level partition by their 2-minimum sequence anchored
at the partition item.  Partitions are processed in ascending key order
and, once processed, every member is reassigned by its *next* minimum
(1- or 2-) subsequence — so when a partition's turn comes it holds exactly
the sequences that contain its key, making the one-scan support counts of
the counting arrays exact.

The *reduction* step (customer sequence reducing, Example 3.2 / Table 7)
removes item occurrences to the right of the minimum point that cannot
take part in any frequent sequence starting with the partition item,
according to the paper's two conditions; items left of the minimum point
are kept untouched (they are never scanned), matching Table 7 literally.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.core.kminimum import ExtensionPair
from repro.core.sequence import RawSequence, seq_length
from repro.obs import active

#: A partition member: (customer id, customer sequence).
Member = tuple[int, RawSequence]


def minimum_item(seq: RawSequence) -> int:
    """The minimum 1-sequence of *seq* (its smallest item)."""
    return min(item for txn in seq for item in txn)


def next_minimum_item(seq: RawSequence, current: int) -> int | None:
    """The next minimum 1-sequence: smallest item > *current*, if any."""
    candidates = [item for txn in seq for item in txn if item > current]
    return min(candidates) if candidates else None


def minimum_point(seq: RawSequence, item: int) -> int:
    """0-based index of the first transaction containing *item*.

    Raises ValueError when the item is absent.
    """
    for index, txn in enumerate(seq):
        if item in txn:
            return index
    raise ValueError(f"item {item} does not occur in {seq!r}")


def first_level_partitions(
    members: Iterable[Member],
) -> dict[int, list[Member]]:
    """Step 1(b): group customer sequences by their minimum 1-sequence."""
    partitions: dict[int, list[Member]] = {}
    for cid, seq in members:
        if not seq:
            continue
        partitions.setdefault(minimum_item(seq), []).append((cid, seq))
    return partitions


def reduce_sequence(
    seq: RawSequence,
    lam: int,
    frequent_items: frozenset[int] | set[int],
    frequent_pairs: frozenset[ExtensionPair] | set[ExtensionPair],
) -> RawSequence | None:
    """Customer sequence reducing for the <(lam)>-partition (Section 3.1).

    *frequent_pairs* holds the frequent 2-sequences with first item *lam*
    as extension pairs: ``(x, 1)`` for ``<(lam x)>`` and ``(x, 2)`` for
    ``<(lam)(x)>``.  Occurrences of *lam* and items left of the minimum
    point survive; every other occurrence is dropped when the 2-sequences
    it could realise are all non-frequent, or when its item is not a
    frequent 1-sequence.  Returns ``None`` when the reduced sequence is
    too short to host any 3-sequence.
    """
    t_min = minimum_point(seq, lam)
    reduced: list[tuple[int, ...]] = []
    for t, txn in enumerate(seq):
        if t < t_min:
            if frequent_items.issuperset(txn):
                kept = txn  # nothing dropped: reuse the member's own tuple
            else:
                kept = tuple(item for item in txn if item in frequent_items)
        else:
            has_lam = lam in txn
            kept_items = []
            for item in txn:
                if item == lam:
                    kept_items.append(item)
                    continue
                if item not in frequent_items:
                    continue
                if t == t_min:
                    # Right of the minimum point inside its own transaction:
                    # only the itemset form <(lam item)> is realisable.
                    keep = (item, 1) in frequent_pairs
                elif has_lam:
                    keep = (item, 1) in frequent_pairs or (item, 2) in frequent_pairs
                else:
                    keep = (item, 2) in frequent_pairs
                if keep:
                    kept_items.append(item)
            kept = txn if len(kept_items) == len(txn) else tuple(kept_items)
        if kept:
            reduced.append(kept)
    result = tuple(reduced)
    if seq_length(result) < 3:
        return None
    return result


class PartitionQueue:
    """Ascending-key partition scheduler with reassignment support.

    Keys must be totally ordered; reassignments may only target keys
    strictly greater than the one being processed (the paper's "next
    minimum subsequence"), which the queue asserts.
    """

    def __init__(self) -> None:
        self._partitions: dict = {}
        self._heap: list = []
        self._current = None

    def add(self, key, member: Member) -> None:
        """Add *member* to the partition keyed *key*."""
        if self._current is not None and not (self._current < key):
            raise ValueError(
                f"reassignment key {key!r} must exceed current {self._current!r}"
            )
        bucket = self._partitions.get(key)
        if bucket is None:
            self._partitions[key] = [member]
            heapq.heappush(self._heap, key)
        else:
            bucket.append(member)

    def __bool__(self) -> bool:
        return bool(self._partitions)

    def __iter__(self) -> Iterator[tuple[object, list[Member]]]:
        """Yield (key, members) in ascending key order, allowing adds."""
        while self._heap:
            key = heapq.heappop(self._heap)
            members = self._partitions.pop(key, None)
            if members is None:
                continue  # key re-pushed then consumed; skip stale entry
            self._current = key
            yield key, members
            self._current = None


def iterate_first_level(
    members: Iterable[Member],
    counted: bool = True,
) -> Iterator[tuple[int, list[Member]]]:
    """Process first-level partitions in order, reassigning after each.

    Yields ``(lam, partition_members)`` for every first-level key in
    ascending order; after the caller finishes with a partition the
    members are reassigned by their next minimum 1-sequence (Step 2.2),
    dropping sequences with no further items.  With *counted* false the
    walk leaves ``partition.first_level`` and its size histogram alone:
    a cluster shard re-walks partitions its coordinator already counted.
    """
    metrics = active().metrics
    visited = metrics.counter("partition.first_level")
    sizes = metrics.histogram("partition.first_level_size")
    queue = PartitionQueue()
    partitions = first_level_partitions(members)
    for lam in sorted(partitions, key=int):
        group = partitions[lam]
        for member in group:
            queue.add(lam, member)
    for lam, group in queue:
        if counted:
            visited.add(1)
            sizes.record(len(group))
        yield lam, group
        for cid, seq in group:
            nxt = next_minimum_item(seq, lam)
            if nxt is not None:
                queue.add(nxt, (cid, seq))


def iterate_extension_partitions(
    members: Iterable[Member],
    prefix: RawSequence,
    frequent_pairs: set[ExtensionPair] | frozenset[ExtensionPair] | None = None,
) -> Iterator[tuple[RawSequence, list[Member]]]:
    """Process the child partitions of a <prefix>-partition in order.

    Child partitions are keyed by the extension pairs of *prefix* (pair
    order equals the comparative order of the extended sequences because
    the flattened prefix positions are shared).  Each member's extension
    pairs are enumerated once, so advancing a member to its next child
    partition is a pointer increment, not a rescan.  When its turn comes
    a child partition holds exactly the members containing its key.

    *frequent_pairs* restricts the visit to the given keys: a frequent
    pattern extending child key P needs support(P) >= delta, so child
    partitions with infrequent keys can never produce patterns and are
    skipped wholesale.
    """
    from repro.core.kminimum import build_extension, extension_pairs

    metrics = active().metrics
    visited = metrics.counter("partition.extension")
    sizes = metrics.histogram("partition.extension_size")
    queue = PartitionQueue()
    #: member -> (sorted extension pairs, index of the current one)
    cursors: list[list] = []
    for cid, seq in members:
        pairs = extension_pairs(seq, prefix)
        if frequent_pairs is not None:
            pairs &= frequent_pairs
        if not pairs:
            continue
        # repro: allow[DISC002] — extension pairs are flat (item, no) keys;
        # their natural order *is* the comparative order (shared prefix)
        ordered = sorted(pairs)
        cursor = [cid, seq, ordered, 0]
        cursors.append(cursor)
        queue.add(ordered[0], cursor)
    for pair, group in queue:
        visited.add(1)
        sizes.record(len(group))
        yield build_extension(prefix, pair), [(c[0], c[1]) for c in group]
        for cursor in group:
            cursor[3] += 1
            ordered = cursor[2]
            if cursor[3] < len(ordered):
                queue.add(ordered[cursor[3]], cursor)


def iterate_second_level(
    reduced_members: Iterable[Member],
    lam: int,
    frequent_pairs: set[ExtensionPair] | None = None,
) -> Iterator[tuple[RawSequence, list[Member]]]:
    """Process second-level partitions of the <(lam)>-partition in order.

    *reduced_members* are the reduced customer sequences.  Keys are
    2-sequences with first item *lam*; after a partition is processed its
    members move to their next 2-minimum key (Step 2.1.3.3).
    """
    yield from iterate_extension_partitions(
        reduced_members, ((lam,),), frequent_pairs
    )
