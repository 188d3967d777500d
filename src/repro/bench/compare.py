"""Perf-regression gate: compare a bench run against a committed baseline.

``repro bench --compare BENCH_baseline.json`` collects a fresh baseline
document (or loads one via ``--candidate``) and diffs it run-by-run
against the committed one, producing a machine-readable verdict with a
``pass`` / ``fail`` decision.  The comparison separates two kinds of
signal:

* **Counters are exact.**  The DISC counters (comparisons, lemma tallies,
  partition counts, ...) are deterministic functions of the database and
  algorithm — any difference is a behaviour change, not noise, and fails
  the gate outright.  The candidate must also satisfy the paper's
  internal invariant ``comparisons == lemma1_frequent + lemma2_prunes``.

* **Timings are noisy and machine-dependent.**  Wall-clock comparisons
  use a relative tolerance plus an absolute slack floor (sub-50ms deltas
  are scheduler noise, not regressions), and per-phase checks skip
  phases too short to measure reliably.  ``calibrate=True`` additionally
  divides every ratio by the median elapsed ratio across all runs, which
  absorbs a uniformly faster/slower machine (CI runners vs the laptop
  that committed the baseline) while still catching a *relative* shift
  concentrated in one run or phase.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.baseline import BASELINE_FORMAT, collect_baseline
from repro.exceptions import DataFormatError

COMPARE_FORMAT = "repro.bench-compare"
COMPARE_VERSION = 1

#: default relative tolerance: fail only when > 1.5x the baseline time
DEFAULT_TOLERANCE = 0.5
#: absolute slack: time deltas under this are never regressions
ABS_SLACK_SECONDS = 0.05
#: per-phase checks require at least this much baseline signal
PHASE_FLOOR_SECONDS = 0.05

#: the counter invariant of Lemmas 2.1/2.2 the candidate must satisfy
_INVARIANT = ("disc.comparisons", "disc.lemma1_frequent", "disc.lemma2_prunes")


def load_baseline(path):
    """Read and structurally validate a baseline document from *path*."""
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != BASELINE_FORMAT:
        raise DataFormatError(
            f"{path} is not a {BASELINE_FORMAT!r} document "
            f"(format={document.get('format') if isinstance(document, dict) else None!r})"
        )
    if not isinstance(document.get("runs"), list):
        raise DataFormatError(f"{path} has no 'runs' list")
    return document


def _run_key(run):
    return (str(run.get("algorithm")), repr(run.get("minsup")))


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _counter_findings(base_counters, cand_counters):
    findings = []
    shared = sorted(set(base_counters) & set(cand_counters))
    for name in shared:
        if base_counters[name] != cand_counters[name]:
            findings.append(
                f"counter {name}: {base_counters[name]} -> {cand_counters[name]} "
                "(counters are deterministic; this is a behaviour change)"
            )
    if all(name in cand_counters for name in _INVARIANT):
        comparisons = cand_counters[_INVARIANT[0]]
        lemma1 = cand_counters[_INVARIANT[1]]
        lemma2 = cand_counters[_INVARIANT[2]]
        if comparisons != lemma1 + lemma2:
            findings.append(
                f"counter invariant violated: comparisons={comparisons} != "
                f"lemma1_frequent={lemma1} + lemma2_prunes={lemma2}"
            )
    return findings


def _timing_finding(label, base_seconds, cand_seconds, tolerance, factor):
    """A regression message for one timing pair, or None when acceptable."""
    reference = base_seconds * factor
    if cand_seconds - reference <= ABS_SLACK_SECONDS:
        return None
    if reference <= 0:
        return None
    ratio = cand_seconds / reference
    if ratio <= 1.0 + tolerance:
        return None
    return (
        f"{label}: {base_seconds:.3f}s -> {cand_seconds:.3f}s "
        f"(x{ratio:.2f} calibrated, tolerance x{1.0 + tolerance:.2f})"
    )


def compare_documents(
    baseline,
    candidate,
    tolerance: float = DEFAULT_TOLERANCE,
    calibrate: bool = False,
):
    """Diff two baseline documents into a verdict document.

    Returns a ``repro.bench-compare`` dict whose ``verdict`` is ``pass``
    or ``fail``; per-run findings explain every failure.
    """
    if baseline.get("scale") != candidate.get("scale"):
        raise DataFormatError(
            f"scale mismatch: baseline is {baseline.get('scale')!r}, "
            f"candidate is {candidate.get('scale')!r} — compare like with like"
        )
    base_runs = {_run_key(run): run for run in baseline["runs"]}
    cand_runs = {_run_key(run): run for run in candidate["runs"]}

    # calibration: the median elapsed ratio over matched runs estimates
    # the machines' uniform speed difference
    ratios = []
    for key, base in base_runs.items():
        cand = cand_runs.get(key)
        if cand is None:
            continue
        base_elapsed = float(base.get("elapsed_seconds") or 0.0)
        cand_elapsed = float(cand.get("elapsed_seconds") or 0.0)
        if base_elapsed > 0 and cand_elapsed > 0:
            ratios.append(cand_elapsed / base_elapsed)
    factor = _median(ratios) if (calibrate and ratios) else 1.0

    runs = []
    regressions = 0
    structure_findings = []
    for key in base_runs:
        if key not in cand_runs:
            structure_findings.append(
                f"run missing from candidate: algorithm={key[0]} minsup={key[1]}"
            )
    for key in cand_runs:
        if key not in base_runs:
            structure_findings.append(
                f"run not in baseline: algorithm={key[0]} minsup={key[1]}"
            )

    for key, base in base_runs.items():
        cand = cand_runs.get(key)
        if cand is None:
            continue
        findings = []
        for field in ("delta", "patterns"):
            if base.get(field) != cand.get(field):
                findings.append(
                    f"{field}: {base.get(field)} -> {cand.get(field)} "
                    "(result mismatch)"
                )
        base_counters = base.get("counters") or {}
        cand_counters = cand.get("counters") or {}
        findings.extend(_counter_findings(base_counters, cand_counters))
        base_elapsed = float(base.get("elapsed_seconds") or 0.0)
        cand_elapsed = float(cand.get("elapsed_seconds") or 0.0)
        timing = _timing_finding(
            "elapsed", base_elapsed, cand_elapsed, tolerance, factor
        )
        if timing is not None:
            findings.append(timing)
        base_phases = base.get("phase_seconds") or {}
        cand_phases = cand.get("phase_seconds") or {}
        shared_phases = sorted(
            set(base_phases) & set(cand_phases)
        )
        for phase in shared_phases:
            base_phase = float(base_phases[phase])
            if base_phase < PHASE_FLOOR_SECONDS:
                continue  # too short to measure reliably
            timing = _timing_finding(
                f"phase {phase}", base_phase, float(cand_phases[phase]),
                tolerance, factor,
            )
            if timing is not None:
                findings.append(timing)
        if findings:
            regressions += 1
        runs.append({
            "algorithm": key[0],
            "minsup": base.get("minsup"),
            "status": "regression" if findings else "ok",
            "elapsed_baseline": base_elapsed,
            "elapsed_candidate": cand_elapsed,
            "ratio": round(cand_elapsed / base_elapsed, 4) if base_elapsed else None,
            "findings": findings,
        })

    failed = bool(structure_findings) or regressions > 0
    return {
        "format": COMPARE_FORMAT,
        "version": COMPARE_VERSION,
        "scale": baseline.get("scale"),
        "tolerance": tolerance,
        "calibrated": calibrate,
        "calibration_ratio": round(factor, 4),
        "verdict": "fail" if failed else "pass",
        "regressions": regressions,
        "structure_findings": structure_findings,
        "runs": runs,
    }


def compare_against(
    baseline_path,
    candidate=None,
    tolerance: float = DEFAULT_TOLERANCE,
    calibrate: bool = False,
):
    """Load the committed baseline, collect/accept a candidate, compare.

    *candidate* may be a pre-collected document (tests, ``--candidate``);
    omitted, a fresh run is collected at the baseline's own scale so the
    comparison is always like-for-like.
    """
    baseline = load_baseline(baseline_path)
    if candidate is None:
        candidate = collect_baseline(scale=str(baseline.get("scale", "repro")))
    return compare_documents(
        baseline, candidate, tolerance=tolerance, calibrate=calibrate
    )


def render_verdict(verdict) -> str:
    """Human-readable lines for one verdict document."""
    lines = [
        f"bench compare (scale={verdict.get('scale')}, "
        f"tolerance=x{1.0 + float(verdict.get('tolerance', 0.0)):.2f}, "
        f"calibration x{verdict.get('calibration_ratio')})"
    ]
    for finding in verdict.get("structure_findings", ()):
        lines.append(f"  !! {finding}")
    for run in verdict.get("runs", ()):
        mark = "ok" if run.get("status") == "ok" else "REGRESSION"
        ratio = run.get("ratio")
        ratio_text = f"x{ratio:.2f}" if isinstance(ratio, float) else "-"
        lines.append(
            f"  {run.get('algorithm')} minsup={run.get('minsup')}: "
            f"{run.get('elapsed_baseline'):.3f}s -> "
            f"{run.get('elapsed_candidate'):.3f}s ({ratio_text})  {mark}"
        )
        for finding in run.get("findings", ()):
            lines.append(f"      - {finding}")
    lines.append(f"verdict: {str(verdict.get('verdict', '')).upper()}")
    return "\n".join(lines)
