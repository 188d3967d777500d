"""Constrained frequent-sequence mining (system S23).

The paper's related work (§1, refs [5] and [10]) mines sequential
patterns under user constraints.  This module implements the classic
positional constraints over transaction indices:

* ``max_gap`` / ``min_gap`` — bounds on the distance between the
  transactions hosting *consecutive* pattern itemsets;
* ``max_span``  — bound on the distance between the first and last
  hosting transactions;
* ``max_length`` — bound on the pattern's item count.

Removing the last item of a pattern only removes gap/span obligations,
so a constrained-frequent pattern always has a constrained-frequent
prefix: prefix-growth enumeration stays complete, and the miner grows
candidates levelwise, counting with the constrained containment test
(which needs backtracking — under ``max_gap`` the greedy leftmost
embedding is no longer sufficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.counting import count_frequent_items
from repro.core.sequence import (
    RawSequence,
    _is_subset_sorted,
    itemset_extension,
    seq_length,
    sequence_extension,
)
from repro.exceptions import InvalidParameterError


@dataclass(frozen=True, slots=True)
class Constraints:
    """Positional mining constraints (all optional)."""

    max_gap: int | None = None
    min_gap: int = 1
    max_span: int | None = None
    max_length: int | None = None

    def validate(self) -> None:
        """Raise InvalidParameterError on inconsistent settings."""
        if self.min_gap < 1:
            raise InvalidParameterError(f"min_gap must be >= 1, got {self.min_gap}")
        if self.max_gap is not None and self.max_gap < self.min_gap:
            raise InvalidParameterError(
                f"max_gap {self.max_gap} < min_gap {self.min_gap}"
            )
        if self.max_span is not None and self.max_span < 0:
            raise InvalidParameterError(f"max_span must be >= 0, got {self.max_span}")
        if self.max_length is not None and self.max_length < 1:
            raise InvalidParameterError(
                f"max_length must be >= 1, got {self.max_length}"
            )

    @property
    def unconstrained(self) -> bool:
        return (
            self.max_gap is None
            and self.min_gap == 1
            and self.max_span is None
            and self.max_length is None
        )


def contains_constrained(
    seq: RawSequence, pattern: RawSequence, constraints: Constraints
) -> bool:
    """True when *seq* hosts *pattern* under the positional constraints.

    Backtracking over hosting transactions: greedy matching is unsound
    under ``max_gap`` (an early host can strand the next itemset), so
    all admissible hosts are explored depth-first.
    """
    if not pattern:
        return True
    hosts = [
        [t for t, txn in enumerate(seq) if _is_subset_sorted(itemset, txn)]
        for itemset in pattern
    ]
    if any(not candidates for candidates in hosts):
        return False
    max_gap = constraints.max_gap
    min_gap = constraints.min_gap
    max_span = constraints.max_span

    def search(index: int, prev: int, first: int) -> bool:
        if index == len(pattern):
            return True
        for t in hosts[index]:
            gap = t - prev
            if gap < min_gap:
                continue
            if max_gap is not None and gap > max_gap:
                break  # hosts ascend; later ones only widen the gap
            if max_span is not None and t - first > max_span:
                break
            if search(index + 1, t, first):
                return True
        return False

    for start in hosts[0]:
        if search(1, start, start):
            return True
    return False


def mine_constrained(
    members: Iterable[tuple[int, RawSequence]],
    delta: int,
    constraints: Constraints = Constraints(),
) -> dict[RawSequence, int]:
    """All sequences constrained-frequent at support >= *delta*.

    Support counts a customer once when it hosts the pattern under the
    constraints.  With default constraints this equals plain mining.
    """
    if delta < 1:
        raise InvalidParameterError(f"delta must be >= 1, got {delta}")
    constraints.validate()
    members = list(members)
    sequences = [seq for _, seq in members]
    item_counts = count_frequent_items(members, delta)
    frequent_items = sorted(item_counts)
    patterns: dict[RawSequence, int] = {
        ((item,),): count for item, count in item_counts.items()
    }
    frontier = sorted(patterns)
    while frontier:
        grown_frontier: list[RawSequence] = []
        for pattern in frontier:
            if (
                constraints.max_length is not None
                and seq_length(pattern) >= constraints.max_length
            ):
                continue
            for candidate in _extensions(pattern, frequent_items):
                count = sum(
                    1
                    for seq in sequences
                    if contains_constrained(seq, candidate, constraints)
                )
                if count >= delta:
                    patterns[candidate] = count
                    grown_frontier.append(candidate)
        frontier = grown_frontier
    if constraints.max_length is not None:
        patterns = {
            pattern: count
            for pattern, count in patterns.items()
            if seq_length(pattern) <= constraints.max_length
        }
    return patterns


def _extensions(pattern: RawSequence, items: list[int]) -> Iterable[RawSequence]:
    last_item = pattern[-1][-1]
    for item in items:
        if item > last_item:
            yield itemset_extension(pattern, item)
    for item in items:
        yield sequence_extension(pattern, item)
