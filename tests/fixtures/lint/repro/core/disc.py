"""Violating fixture: support counting inside the DISC discovery loop.

Expected findings: DISC001 at the CountingArray construction and at the
.observe_all() call (both inside the while loop).  Never imported by the
tests — only parsed by the lint engine.
"""


def discover(entries, delta, CountingArray):
    supports = {}
    while len(entries) >= delta:
        array = CountingArray(())
        array.observe_all(entries)
        supports.update(array.counts())
        entries = entries[1:]
    return supports


def acknowledged(entries, delta, CountingArray):
    while len(entries) >= delta:
        CountingArray(()).observe_all(entries)  # repro: allow[DISC001]
        entries = entries[1:]
