"""Violating fixture: in-place mutation of canonical sequence values.

Expected findings: DISC003 at the .append() call, at the item
assignment, and at the module-level item assignment below.
"""

RawSequence = tuple
FlatSequence = tuple

PATTERN: RawSequence = ((1,), (2,))
PATTERN[0] = (3,)


def grow(seq: RawSequence, flat: "FlatSequence", item: int) -> RawSequence:
    seq.append((item,))
    flat[0] = (item, 1)
    rebuilt = seq + ((item,),)
    return rebuilt


def acknowledged(seq: RawSequence, item: int) -> None:
    seq.append((item,))  # repro: allow[DISC003]
