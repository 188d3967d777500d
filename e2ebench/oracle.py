"""Correctness oracle, written apart from ``repro``.

Nothing here imports the program: a fault shared by the miner and its
checker would pass unseen.  A pattern is a tuple of itemsets, each a
sorted tuple of positive ints; a result is a ``{pattern: support}`` map.

:func:`check` runs three checks and returns the list of failures (empty
when the result is right):

* recount: the support of a seeded sample of reported patterns, plus
  every pattern of the maximum length, recounted by subsequence
  containment, equals the reported support and is >= delta;
* exact 1- and 2-sequences: an independent count of every frequent
  1-sequence and 2-sequence equals the reported ones, no more, no less;
* downward closure: every one-item deletion of a reported pattern is
  itself reported, with support at least the pattern's.
"""

from __future__ import annotations

import random
import re

Pattern = tuple[tuple[int, ...], ...]
#: reported patterns whose support is recounted, besides the longest ones
SAMPLE = 100


def contains(sequence: Pattern, pattern: Pattern) -> bool:
    """Whether *pattern* is a subsequence of *sequence* (earliest match)."""
    position = 0
    for itemset in pattern:
        wanted = set(itemset)
        while position < len(sequence) and not wanted.issubset(sequence[position]):
            position += 1
        if position == len(sequence):
            return False
        position += 1
    return True


def support(sequences: list[Pattern], pattern: Pattern) -> int:
    """Number of customer sequences that contain *pattern*."""
    return sum(1 for sequence in sequences if contains(sequence, pattern))


def frequent_short(sequences: list[Pattern], delta: int) -> dict[Pattern, int]:
    """Every frequent 1-sequence and 2-sequence with its support."""
    counts: dict[Pattern, int] = {}
    for sequence in sequences:
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        found: set[Pattern] = set()
        for index, itemset in enumerate(sequence):
            for item in itemset:
                first.setdefault(item, index)
                last[item] = index
            for i, a in enumerate(itemset):
                for b in itemset[i + 1:]:
                    found.add(((min(a, b), max(a, b)),))
        for item in first:
            found.add(((item,),))
        for a, a_first in first.items():
            for b, b_last in last.items():
                if a_first < b_last:
                    found.add(((a,), (b,)))
        for pattern in found:
            counts[pattern] = counts.get(pattern, 0) + 1
    return {pattern: count for pattern, count in counts.items() if count >= delta}


def deletions(pattern: Pattern) -> list[Pattern]:
    """Every pattern made by deleting one item from *pattern*."""
    shorter = []
    for index, itemset in enumerate(pattern):
        for item in itemset:
            rest = tuple(i for i in itemset if i != item)
            head, tail = pattern[:index], pattern[index + 1:]
            shorter.append(head + ((rest,) if rest else ()) + tail)
    return shorter


def length(pattern: Pattern) -> int:
    return sum(len(itemset) for itemset in pattern)


def check(
    sequences: list[Pattern],
    delta: int,
    reported: dict[Pattern, int],
    seed: int = 0,
) -> list[str]:
    """Failures of *reported* as the frequent-pattern map of *sequences* at *delta*."""
    failures: list[str] = []
    if not reported:
        return ["no patterns reported"]
    longest = max(length(pattern) for pattern in reported)
    ordered = sorted(reported)
    picked = set(random.Random(seed).sample(ordered, min(SAMPLE, len(ordered))))
    picked.update(pattern for pattern in ordered if length(pattern) == longest)
    for pattern in sorted(picked):
        actual = support(sequences, pattern)
        if actual != reported[pattern] or actual < delta:
            failures.append(
                f"support of {pattern}: reported {reported[pattern]}, recounted {actual}"
            )
    expected = frequent_short(sequences, delta)
    short = {p: c for p, c in reported.items() if length(p) <= 2}
    for pattern in sorted(set(expected) | set(short)):
        if expected.get(pattern) != short.get(pattern):
            failures.append(
                f"{pattern}: reported {short.get(pattern)}, counted {expected.get(pattern)}"
            )
    for pattern, count in reported.items():
        for smaller in deletions(pattern):
            if smaller and reported.get(smaller, -1) < count:
                failures.append(
                    f"{smaller} (deletion of {pattern}) missing or below {count}"
                )
    return failures[:20]


_ITEMSET = re.compile(r"\(([^)]*)\)")


def parse_pattern(text: str) -> Pattern:
    """Parse the service's ``<(1, 5)(7)>`` notation (letters when all items are <= 26)."""
    pattern = []
    for body in _ITEMSET.findall(text):
        tokens = [token.strip() for token in body.split(",")]
        pattern.append(
            tuple(sorted(int(t) if t.isdigit() else ord(t) - ord("a") + 1 for t in tokens))
        )
    return tuple(pattern)
