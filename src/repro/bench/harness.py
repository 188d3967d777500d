"""Experiment harness (system S21).

One :class:`ExperimentResult` per paper table/figure, produced by the
drivers in :mod:`repro.bench.experiments`.  Every driver accepts a
:class:`Scale` describing how far to shrink the paper's workloads; the
default ``repro`` scale finishes on a laptop in minutes, while ``paper``
uses the original parameters (hours in pure Python — documented, not
recommended).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.reporting import render_table
from repro.db.database import SequenceDatabase
from repro.mining.api import mine
from repro.mining.result import MiningResult


@dataclass(frozen=True, slots=True)
class Scale:
    """Workload scale factors relative to the paper's setup."""

    name: str
    #: customers for the Figure 8 sweep
    fig8_ncust: tuple[int, ...]
    #: minimum support threshold for Figure 8
    fig8_minsup: float
    #: customers for the Figure 9 / Tables 12-13 database
    fig9_ncust: int
    #: minimum support sweep for Figure 9 / Tables 12-13
    fig9_minsups: tuple[float, ...]
    #: average transactions per customer (theta) sweep, Fig 10 / Table 14
    theta_values: tuple[int, ...]
    #: customers for the theta sweep
    theta_ncust: int
    #: minimum support for the theta sweep
    theta_minsup: float
    #: item-universe size
    nitems: int
    #: potential-pattern table size
    npats: int


#: Laptop-scale defaults: same shapes as the paper, ~100x fewer customers.
REPRO_SCALE = Scale(
    name="repro",
    fig8_ncust=(500, 1000, 2000, 4000),
    fig8_minsup=0.015,
    fig9_ncust=600,
    fig9_minsups=(0.03, 0.025, 0.02, 0.015, 0.0125, 0.01),
    theta_values=(4, 8, 10, 12, 16),
    theta_ncust=400,
    theta_minsup=0.02,
    nitems=400,
    npats=400,
)

#: Fast sanity scale used by the tests and CI.
SMOKE_SCALE = Scale(
    name="smoke",
    fig8_ncust=(200, 400),
    fig8_minsup=0.03,
    fig9_ncust=200,
    fig9_minsups=(0.06, 0.04),
    theta_values=(4, 6),
    theta_ncust=150,
    theta_minsup=0.04,
    nitems=200,
    npats=200,
)

#: Larger runs (~10-30 min for the full suite): a tenth of the paper's
#: customer counts, for the scalability datapoints in EXPERIMENTS.md.
LARGE_SCALE = Scale(
    name="large",
    fig8_ncust=(5_000, 10_000, 20_000),
    fig8_minsup=0.01,
    fig9_ncust=2_000,
    fig9_minsups=(0.02, 0.015, 0.01, 0.0075),
    theta_values=(8, 12, 16),
    theta_ncust=1_000,
    theta_minsup=0.015,
    nitems=600,
    npats=1_000,
)

#: The paper's original parameters.  Pure-Python runtimes are hours; kept
#: for completeness and documented in EXPERIMENTS.md.
PAPER_SCALE = Scale(
    name="paper",
    fig8_ncust=(50_000, 100_000, 200_000, 300_000, 400_000, 500_000),
    fig8_minsup=0.0025,
    fig9_ncust=10_000,
    fig9_minsups=(0.02, 0.0175, 0.015, 0.0125, 0.01, 0.0075, 0.005, 0.0025),
    theta_values=(10, 15, 20, 25, 30, 35, 40),
    theta_ncust=50_000,
    theta_minsup=0.005,
    nitems=1000,
    npats=5000,
)

SCALES = {
    scale.name: scale
    for scale in (REPRO_SCALE, SMOKE_SCALE, LARGE_SCALE, PAPER_SCALE)
}


@dataclass(slots=True)
class ExperimentResult:
    """Rows regenerating one paper table or figure."""

    experiment: str
    paper_reference: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """The rows as an aligned ASCII table with notes."""
        title = f"{self.experiment} — {self.paper_reference}"
        text = render_table(self.headers, self.rows, title=title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def render_markdown(self) -> str:
        """The rows as a markdown table (EXPERIMENTS.md building block)."""
        from repro.bench.reporting import render_markdown

        title = f"{self.experiment} — {self.paper_reference}"
        text = render_markdown(self.headers, self.rows, title=title)
        if self.notes:
            text += "\n\n" + "\n".join(f"*{note}*" for note in self.notes)
        return text

    def to_dict(self) -> dict:
        """JSON-serialisable form (machine-readable experiment output)."""
        return {
            "experiment": self.experiment,
            "paper_reference": self.paper_reference,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }


def timed_mine(
    db: SequenceDatabase, minsup: float, algorithm: str, **options
) -> tuple[float, int]:
    """(seconds, number of frequent sequences) for one mining run."""
    started = time.perf_counter()
    result = mine(db, minsup, algorithm=algorithm, **options)
    return time.perf_counter() - started, len(result)


def observed_mine(
    db: SequenceDatabase, minsup: float, algorithm: str, **options
) -> MiningResult:
    """One instrumented mining run; the result carries its RunReport.

    The report is the same document ``repro mine --metrics-json`` writes,
    so benchmark trajectories (``BENCH_*.json``) and ad-hoc CLI runs stay
    directly comparable.
    """
    return mine(db, minsup, algorithm=algorithm, observe=True, **options)


def run_experiment(name: str, scale: str = "repro") -> ExperimentResult:
    """Run one named experiment at the given scale (see EXPERIMENTS)."""
    from repro.bench.experiments import EXPERIMENTS

    try:
        driver: Callable[[Scale], ExperimentResult] = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return driver(SCALES[scale])
