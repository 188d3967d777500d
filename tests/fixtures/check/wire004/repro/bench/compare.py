"""WIRE004 fixture: the invariant gate reads an undeclared metric."""


def invariant_totals(report) -> list[int]:
    return [
        report.counter_total("disc.comparisons"),
        report.counter_total("made.up.metric"),
    ]
