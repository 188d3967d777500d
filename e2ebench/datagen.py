"""Quest-style input generator owned by the benchmark.

The benchmark generates its own inputs instead of calling
``repro.datagen``: a change to the program's generator must not change
what the benchmark measures, or a parent and a child commit would be
timed on different databases.

The process follows Agrawal & Srikant's Quest generator (the one the
paper evaluates on): a table of potentially frequent itemsets, a table
of potentially frequent sequences built from it, and customer sequences
that embed corrupted copies of weighted random patterns.

A workload fixes two seeds of its own: one draws the pattern tables,
one draws the customers.  The benchmark's ``--seed`` then draws an
isomorphic copy of that database: a random permutation of the item ids
1..nitems and a random customer order.  Every byte the program reads
changes with the seed, and so does the order in which it visits
partitions and k-minimum subsequences, but the number and lengths of
the frequent patterns do not.  Drawing fresh tables or fresh customers
from ``--seed`` instead moved the cost of one DISC-heavy mine by up to
3x or by +-25% between seeds in trials, more than any regression bound
allows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: A customer sequence: a tuple of itemsets, each a sorted tuple of ints.
Sequence = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Shape:
    """Generator knobs, named after the Quest options (paper Table 11)."""

    ncust: int
    slen: float
    tlen: float
    nitems: int
    patlen: float
    npats: int
    table_seed: int
    draw_seed: int
    nlits: int = 1000
    litlen: float = 1.25
    corr: float = 0.25
    corrupt_mean: float = 0.75
    corrupt_sd: float = 0.1


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson sampler, clamped to >= 1."""
    threshold = math.exp(-mean)
    k, product = 0, 1.0
    while True:
        k += 1
        product *= rng.random()
        if product <= threshold:
            return max(1, k - 1)


def _weights(rng: random.Random, count: int) -> list[float]:
    raw = [rng.expovariate(1.0) for _ in range(count)]
    total = sum(raw)
    return [value / total for value in raw]


def _tables(shape: Shape) -> tuple[list[tuple[Sequence, float]], list[float]]:
    """Potential patterns ``(elements, corruption)`` and their weights."""
    rng = random.Random(shape.table_seed)
    itemsets: list[tuple[int, ...]] = []
    previous: tuple[int, ...] = ()
    for _ in range(shape.nlits):
        chosen: set[int] = set()
        for _ in range(_poisson(rng, shape.litlen)):
            if previous and rng.random() < shape.corr:
                chosen.add(rng.choice(previous))
            else:
                chosen.add(rng.randint(1, shape.nitems))
        previous = tuple(sorted(chosen))
        itemsets.append(previous)
    itemset_weights = _weights(rng, len(itemsets))
    pattern_weights = _weights(rng, shape.npats)
    patterns: list[tuple[Sequence, float]] = []
    elements_before: Sequence = ()
    for _ in range(shape.npats):
        elements = []
        for _ in range(_poisson(rng, shape.patlen)):
            if elements_before and rng.random() < shape.corr:
                elements.append(rng.choice(elements_before))
            else:
                elements.append(rng.choices(itemsets, itemset_weights)[0])
        corruption = min(1.0, max(0.0, rng.gauss(shape.corrupt_mean, shape.corrupt_sd)))
        elements_before = tuple(elements)
        patterns.append((elements_before, corruption))
    return patterns, pattern_weights


def _customer(
    shape: Shape,
    patterns: list[tuple[Sequence, float]],
    weights: list[float],
    rng: random.Random,
) -> Sequence:
    n_txn = _poisson(rng, shape.slen)
    target = sum(_poisson(rng, shape.tlen) for _ in range(n_txn))
    transactions: list[set[int]] = [set() for _ in range(n_txn)]
    placed = 0
    for _ in range(4 * n_txn + 8):
        if placed >= target:
            break
        elements, corruption = rng.choices(patterns, weights)[0]
        embedding = [
            kept
            for kept in ([i for i in itemset if rng.random() >= corruption] for itemset in elements)
            if kept
        ][:n_txn]
        if not embedding:
            continue
        offset = rng.randrange(0, n_txn - len(embedding) + 1)
        for shift, itemset in enumerate(embedding):
            txn = transactions[offset + shift]
            for item in itemset:
                if item not in txn:
                    txn.add(item)
                    placed += 1
    sequence = tuple(tuple(sorted(txn)) for txn in transactions if txn)
    return sequence or ((rng.randint(1, shape.nitems),),)


def generate(shape: Shape, seed: int) -> list[Sequence]:
    """The ``shape.ncust`` customer sequences, relabelled and reordered by *seed*."""
    patterns, weights = _tables(shape)
    draw = random.Random(shape.draw_seed)
    customers = [_customer(shape, patterns, weights, draw) for _ in range(shape.ncust)]
    rng = random.Random(seed)
    labels = list(range(1, shape.nitems + 1))
    rng.shuffle(labels)
    relabelled = [
        tuple(tuple(sorted(labels[item - 1] for item in itemset)) for itemset in customer)
        for customer in customers
    ]
    rng.shuffle(relabelled)
    return relabelled


def to_spmf(sequences: list[Sequence]) -> str:
    """SPMF text: items separated by spaces, ``-1`` ends an itemset, ``-2`` a sequence."""
    lines = []
    for sequence in sequences:
        parts = []
        for itemset in sequence:
            parts.extend(str(item) for item in itemset)
            parts.append("-1")
        parts.append("-2")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
