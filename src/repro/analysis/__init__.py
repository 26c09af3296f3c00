"""repolint: schema-aware static analysis for this repository's invariants.

Public API::

    from repro.analysis import LintEngine, build_default_catalog

    engine = LintEngine()
    findings = engine.lint_paths(["src/repro"])

See ``docs/static-analysis.md`` for the rule catalog, the suppression
syntax, and the baseline workflow.  The runtime lock sanitizer that pairs
with the concurrency rules lives in :mod:`repro.locks`, outside this
package, so production code never imports the lint engine.
"""

from __future__ import annotations

from .baseline import load_baseline, partition, save_baseline
from .catalog import SchemaCatalog, build_default_catalog
from .concurrency import (
    ALL_PROJECT_RULES,
    BlockingCallUnderLockRule,
    ClassLockModel,
    LockOrderInversionRule,
    ProjectRule,
    UnguardedSharedMutationRule,
    build_class_models,
)
from .engine import ALL_FILE_RULES, LintEngine, iter_python_files
from .model import Severity, SuppressionIndex, Violation, parse_suppressions
from .rules import ALL_RULES, DEFAULT_CONFIG, LintConfig, Rule, RuleContext

__all__ = [
    "ALL_FILE_RULES",
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "BlockingCallUnderLockRule",
    "ClassLockModel",
    "DEFAULT_CONFIG",
    "LintConfig",
    "LintEngine",
    "LockOrderInversionRule",
    "ProjectRule",
    "Rule",
    "RuleContext",
    "SchemaCatalog",
    "Severity",
    "SuppressionIndex",
    "UnguardedSharedMutationRule",
    "Violation",
    "build_class_models",
    "build_default_catalog",
    "iter_python_files",
    "load_baseline",
    "parse_suppressions",
    "partition",
    "save_baseline",
]
