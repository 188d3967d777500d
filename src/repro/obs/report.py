"""Structured run reports (system S25).

A :class:`RunReport` is the durable output of one observed run: the
metrics snapshot plus the span tree, JSON round-trippable so benchmark
trajectories (``BENCH_*.json``) can accumulate across commits and the
CLI can render the same data for humans (``repro mine --trace``) or
machines (``--metrics-json``).
"""

from __future__ import annotations

from typing import Any, Callable, cast

from repro.exceptions import DataFormatError
from repro.obs.metrics import render_name
from repro.obs.tracing import SpanRecord

REPORT_FORMAT = "repro.run-report"
REPORT_VERSION = 1


def _num(entry: dict[str, object], field: str) -> int | float:
    """Numeric field of a metric entry (0 when absent)."""
    value = entry.get(field, 0)
    if not isinstance(value, (int, float)):
        raise DataFormatError(
            f"metric field {field!r} is not numeric: {value!r}"
        )
    return value


def _extreme(
    pick: "Callable[[float, float], float]",
    ours: object,
    theirs: object,
) -> int | float | None:
    """min/max of two optional extremes, ignoring absent sides."""
    left = ours if isinstance(ours, (int, float)) else None
    right = theirs if isinstance(theirs, (int, float)) else None
    if left is None:
        return right
    if right is None:
        return left
    return pick(left, right)


class RunReport:
    """Metrics snapshot + span tree of one observed run."""

    __slots__ = ("metrics", "spans")

    def __init__(
        self,
        metrics: dict[str, dict[str, object]],
        spans: list[SpanRecord],
    ) -> None:
        self.metrics = metrics
        self.spans = spans

    # -- queries -----------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        """Value of one counter (0 when absent)."""
        entry = self.metrics.get(render_name(name, tuple(sorted(labels.items()))))
        if entry is None or entry.get("type") != "counter":
            return 0
        return int(cast("int | float", entry.get("value", 0)))

    def counter_total(self, name: str) -> int:
        """Sum of all counters named *name* across label sets."""
        return sum(
            int(cast("int | float", entry.get("value", 0)))
            for entry in self.metrics.values()
            if entry.get("type") == "counter" and entry.get("name") == name
        )

    def phase_totals(self) -> dict[str, float]:
        """Total seconds per span name, summed over the whole tree."""
        totals: dict[str, float] = {}

        def walk(record: SpanRecord) -> None:
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
            for child in record.children:
                walk(child)

        for root in self.spans:
            walk(root)
        return totals

    # -- merge algebra -----------------------------------------------------

    def merge(self, other: "RunReport") -> "RunReport":
        """This report combined with *other*, associatively and commutatively.

        Counters add, gauges keep the larger value (and maximum),
        histograms add counts/sums/buckets and combine extremes; metric
        keys present in only one report pass through.  Root spans are
        concatenated and canonically ordered by their serialised form, so
        ``a.merge(b)`` and ``b.merge(a)`` produce identical ``to_dict()``
        documents — the algebra the cluster coordinator folds per-shard
        worker reports with.  A metric key whose type differs between the
        two reports raises :class:`DataFormatError`.
        """
        import json

        merged = {key: dict(entry) for key, entry in self.metrics.items()}
        for key, entry in other.metrics.items():
            ours = merged.get(key)
            if ours is None:
                merged[key] = dict(entry)
                continue
            kind = ours.get("type")
            if kind != entry.get("type"):
                raise DataFormatError(
                    f"cannot merge metric {key!r}: {kind!r} vs "
                    f"{entry.get('type')!r}"
                )
            if kind == "counter":
                ours["value"] = _num(ours, "value") + _num(entry, "value")
            elif kind == "gauge":
                ours["value"] = max(_num(ours, "value"), _num(entry, "value"))
                ours["max"] = max(_num(ours, "max"), _num(entry, "max"))
            elif kind == "histogram":
                ours["count"] = _num(ours, "count") + _num(entry, "count")
                ours["sum"] = _num(ours, "sum") + _num(entry, "sum")
                ours["min"] = _extreme(min, ours.get("min"), entry.get("min"))
                ours["max"] = _extreme(max, ours.get("max"), entry.get("max"))
                buckets = dict(cast("dict[str, int]", ours.get("buckets") or {}))
                for bound, count in cast(
                    "dict[str, int]", entry.get("buckets") or {}
                ).items():
                    buckets[bound] = buckets.get(bound, 0) + count
                ours["buckets"] = buckets
            else:
                raise DataFormatError(
                    f"cannot merge metric {key!r} of unknown type {kind!r}"
                )
        ordered = {key: merged[key] for key in sorted(merged)}
        spans = sorted(
            list(self.spans) + list(other.spans),
            key=lambda record: json.dumps(
                record.to_dict(), sort_keys=True, default=str
            ),
        )
        return RunReport(ordered, spans)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-data document (the ``repro.run-report`` schema)."""
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "metrics": {key: dict(entry) for key, entry in self.metrics.items()},
            "spans": [root.to_dict() for root in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        """Rebuild a report written by :meth:`to_dict`."""
        if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
            raise DataFormatError("not a repro run-report document")
        if payload.get("version") != REPORT_VERSION:
            raise DataFormatError(
                f"unsupported run-report version {payload.get('version')!r}"
            )
        try:
            metrics = {
                str(key): dict(entry)
                for key, entry in dict(payload["metrics"]).items()
            }
            spans = [SpanRecord.from_dict(span) for span in payload["spans"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed run-report document: {exc}") from exc
        return cls(metrics, spans)

    def to_json(self) -> str:
        """The report as a JSON string."""
        import json

        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from :meth:`to_json` output."""
        import json

        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise DataFormatError(f"run-report is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Human-readable phase tree followed by the metrics table."""
        lines: list[str] = []
        if self.spans:
            lines.append("phases:")
            lines.extend(root.render(indent=1) for root in self.spans)
        if self.metrics:
            lines.append("metrics:")
            for key, entry in self.metrics.items():
                kind = entry.get("type")
                if kind == "counter":
                    lines.append(f"  {key} = {entry.get('value')}")
                elif kind == "gauge":
                    lines.append(f"  {key} = {entry.get('value')} (max {entry.get('max')})")
                else:
                    lines.append(
                        f"  {key}: count={entry.get('count')} sum={entry.get('sum')} "
                        f"min={entry.get('min')} max={entry.get('max')}"
                    )
        return "\n".join(lines)
