"""One command-line runner for ``repro lint``, ``repro check`` and
``python -m repro.analysis`` (the last runs the linter)."""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Sequence

from repro.analysis.checker import check_paths
from repro.analysis.engine import lint_paths
from repro.analysis.findings import PARSE_ERROR_ID
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.visitor import render_rule_summaries

#: subcommand -> (analysis over paths, SARIF tool name)
ENGINES = {
    "lint": (lint_paths, "repro-lint"),
    "check": (check_paths, "repro-check"),
}


def run_analysis(
    engine: str,
    paths: Sequence[str],
    output_format: str = "text",
    rule_ids: Sequence[str] | None = None,
    show_rules: bool = False,
) -> int:
    """Run the *engine* (``lint`` or ``check``) over *paths*.

    Exit codes: 0 clean, 1 rule findings, 2 when the analysis itself
    could not run — missing path, unknown rule id, unparseable file
    (a LINT000 finding) or an analysis crash.
    """
    if show_rules:
        print(render_rule_summaries())
        return 0
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    analyse, tool_name = ENGINES[engine]
    try:
        findings, checked = analyse(paths, rule_ids=rule_ids)
    except ValueError as exc:  # unknown rule id in --rules
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # analysis crash: report, never masquerade as clean
        print("error: analysis crashed", file=sys.stderr)
        traceback.print_exc()
        return 2
    if output_format == "json":
        print(render_json(findings, checked))
    elif output_format == "sarif":
        print(render_sarif(findings, checked, tool_name=tool_name))
    else:
        print(render_text(findings, checked))
    if any(finding.rule_id == PARSE_ERROR_ID for finding in findings):
        return 2
    return 1 if findings else 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared lint/check options on *parser*."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", default="",
        help="comma-separated rule ids or family prefixes to run "
        "(default: every rule)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog of both engines and exit",
    )


def run_from_args(engine: str, args: argparse.Namespace) -> int:
    """Run the *engine* from parsed arguments (argparse Namespace)."""
    rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    return run_analysis(
        engine,
        args.paths,
        output_format=args.format,
        rule_ids=rule_ids or None,
        show_rules=args.list_rules,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="DISC-invariant lint engine for the repro codebase",
    )
    add_arguments(parser)
    return run_from_args("lint", parser.parse_args(argv))
