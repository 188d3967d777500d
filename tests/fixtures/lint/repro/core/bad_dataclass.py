"""Violating fixture: core/ dataclasses without slots=True.

Expected findings: DISC004 on Entry (bare decorator) and on Record
(call decorator without slots); Packed is clean.
"""

from dataclasses import dataclass


@dataclass
class Entry:
    cid: int


@dataclass(frozen=True)
class Record:
    cid: int
    count: int


@dataclass(frozen=True, slots=True)
class Packed:
    cid: int


@dataclass
class Acknowledged:  # repro: allow[DISC004]
    cid: int
