"""Outside-in benchmark of the DISC miner: one command, four workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload mine-deep --seed 1 --seconds 26 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes that object, with any failure messages, to
``e2ebench/out/<workload>-seed<seed>-trace<0|1>.json``, and a traced run
writes its self-time ledger next to it as ``...-ledger.md``.  The exit
code is 0 only when every output checked out and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_workloads() -> ModuleType:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    return workloads


def ledger_table(workload: str, rows: dict[str, tuple[float, float]]) -> str:
    """The traced run's per-layer self time as a Markdown table."""
    wall = rows["wall"][0]
    lines = [
        f"# Self-time ledger: {workload}",
        "",
        "Seconds per mine.  In the mining thread's column the layers and",
        "`unattributed` add up to the wall time; other threads (cluster",
        "dispatch, service handlers) overlap it.  `unattributed` is the time",
        "no named layer claims, `disc_all`'s own loops included.",
        "",
        "| layer | mining thread s | share of wall | other threads s |",
        "|---|---:|---:|---:|",
    ]
    for layer, (own, other) in rows.items():
        share = own / wall * 100 if wall else 0.0
        lines.append(f"| {layer} | {own:.4f} | {share:.1f}% | {other:.4f} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    workloads = _import_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), ROOT)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({**result, "failures": outcome.failures}, indent=1) + "\n"
    )
    if outcome.ledger:
        (out / f"{stem}-ledger.md").write_text(ledger_table(args.workload, outcome.ledger))
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if not outcome.metrics:
        return 1
    print(json.dumps(result))
    return 0 if outcome.correct and not outcome.failed else 1


if __name__ == "__main__":
    sys.exit(main())
