"""Static analysis for the repro codebase (system S24).

Two engines share one findings/suppression/reporting substrate:

* the per-file linter (``repro lint``) — AST rules over one module at a
  time, turning the paper's algorithmic invariants (above all "no
  support counting in the DISC loop", Lemmas 2.1/2.2) into gates;
* the whole-program checker (``repro check``) — parses every module
  into one project model, builds a name-resolution call graph and runs
  the cross-module rule families: CONC (lock discipline and lock
  order), FLOW (cancellation liveness), HOT (hot-loop hygiene) and WIRE
  (events, retry decisions and metric names against
  :mod:`repro.contracts`).

A rule stays in the catalog while it guards structure the code really
has: each one either caught a real defect or watches live structure in
``src``.  Where the runtime already
holds a contract (``validate_event``, ``validate_error_body``, the HTTP
error path answering from the taxonomy), there is no second table to
compare it against.

Stdlib-only (``ast`` + ``tokenize``); see ``docs/DEVELOPMENT.md`` for
the full rule catalog.

Programmatic use::

    from repro.analysis import lint_paths, check_paths
    findings, checked = lint_paths(["src"])
    findings, modules = check_paths(["src"])

Command line::

    repro lint src/                 # or: python -m repro.analysis src/
    repro check src/
    repro lint --format sarif src/
    repro check --list-rules
"""

from repro.analysis.checker import check_paths, check_project
from repro.analysis.engine import (
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectModel, load_project
from repro.analysis.reporting import (
    render_json,
    render_sarif,
    render_text,
    rule_counts,
)
from repro.analysis.visitor import (
    ProjectRule,
    Rule,
    project_rule_catalog,
    register,
    register_project,
    rule_catalog,
)

__all__ = [
    "Finding",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "check_paths",
    "check_project",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_project",
    "parse_suppressions",
    "project_rule_catalog",
    "register",
    "register_project",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalog",
    "rule_counts",
]
