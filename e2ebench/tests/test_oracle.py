"""The oracle accepts a right answer and rejects tampered ones."""

import pytest

import datagen
import oracle
from repro import SequenceDatabase, mine

SHAPE = datagen.Shape(ncust=60, slen=6, tlen=2.5, nitems=30, patlen=4, npats=10,
                      table_seed=7, draw_seed=7, corrupt_mean=0.3)
DELTA = 8


@pytest.fixture(scope="module")
def mined():
    sequences = datagen.generate(SHAPE, seed=1)
    result = mine(SequenceDatabase.from_raw(sequences), DELTA, algorithm="prefixspan")
    patterns = {tuple(tuple(t) for t in raw): n for raw, n in result.patterns.items()}
    assert max(oracle.length(p) for p in patterns) >= 3
    return sequences, patterns


def test_right_answer_passes(mined):
    sequences, patterns = mined
    assert oracle.check(sequences, DELTA, patterns) == []


def test_tampered_support_fails(mined):
    sequences, patterns = mined
    longest = max(patterns, key=oracle.length)
    tampered = dict(patterns)
    tampered[longest] += 1
    assert oracle.check(sequences, DELTA, tampered)


@pytest.mark.parametrize("size", [2, 3])
def test_dropped_pattern_fails(mined, size):
    sequences, patterns = mined
    # a 3-pattern that a longer reported pattern extends, or any 2-pattern
    victim = next(
        p for p in sorted(patterns)
        if oracle.length(p) == size
        and any(p in oracle.deletions(q) for q in patterns if oracle.length(q) == size + 1)
    )
    dropped = {p: n for p, n in patterns.items() if p != victim}
    assert oracle.check(sequences, DELTA, dropped)


@pytest.mark.parametrize("kind", ["longest", "pair"])
def test_extra_pattern_fails(mined, kind):
    sequences, patterns = mined
    absent = max(i for s in sequences for t in s for i in t) + 1
    if kind == "longest":
        extra = max(patterns, key=oracle.length) + ((absent,),)
    else:
        extra = ((absent,), (absent + 1,))
    assert oracle.check(sequences, DELTA, dict(patterns) | {extra: DELTA})


def test_contains_is_subsequence_containment():
    seq = ((1, 2), (3,), (1, 4))
    assert oracle.contains(seq, ((1,), (1,)))
    assert oracle.contains(seq, ((2,), (4,)))
    assert not oracle.contains(seq, ((1, 3),))
    assert not oracle.contains(seq, ((3,), (3,)))


def test_parse_pattern_reads_both_notations():
    assert oracle.parse_pattern("<(a, c)(z)>") == ((1, 3), (26,))
    assert oracle.parse_pattern("<(5, 27)(3)>") == ((5, 27), (3,))
