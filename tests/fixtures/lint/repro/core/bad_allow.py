"""Violating fixture: a suppression naming an unknown rule id.

Expected findings: LINT001 at the comment line (the typo'd id
suppresses nothing).
"""


def order_levels(levels):
    return sorted(levels)  # repro: allow[DISC999]


def order_acknowledged(levels):
    return sorted(levels, key=int)  # repro: allow[LINT001, DISC999]
