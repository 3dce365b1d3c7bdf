"""repro.lint — AST-based determinism & invariant analyzer.

The reproduction's headline numbers rest on invariants the test suite
can only sample: bit-determinism across worker counts, cache keys
versioned by ``SCHEMA_VERSION``, site-hashed fault injection, suffixed
unit arithmetic, picklable pool payloads.  This package checks those
invariants *statically*, on every file, before a test runs:

================  ====================================================
Rule family        Invariant
================  ====================================================
``DET``            no ambient entropy (wall clocks and wall-domain
                   spans included) in the simulation layers
``UNIT``           ``_ns``/``_bytes``-style suffixes never mix
``SITE``           fault-plan sites hash identically in every process
``WEAR``           the FTL erase ledger moves only in ``ssd/`` and
                   ``lifetime/``
``SCHEMA``         cache-key definitions cannot drift past
                   ``SCHEMA_VERSION`` (fingerprint snapshot diff)
``FLOW``           whole-program taint: no wall-clock value reaches a
                   sim timestamp, no process-dependent value a site
                   identity, nothing unpicklable a process pool
================  ====================================================

Entry points: ``python -m repro lint`` (CLI), :func:`lint_paths`
(library).  Per-line suppression: ``# repro: noqa[RULE]``.  Repo-wide
grandfathering: ``lint-baseline.json`` (every entry needs a written
justification).  See DESIGN.md §12.
"""

from .baseline import Baseline, BaselineEntry
from .context import DET_GATED_DIRS, FileContext, LintConfig
from .findings import Finding
from .fingerprint import (
    DEFAULT_WATCH,
    WatchedFile,
    compute_fingerprints,
    default_fingerprint_path,
    write_fingerprints,
)
from .registry import all_rule_codes
from .runner import LintResult, lint_paths

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_WATCH",
    "DET_GATED_DIRS",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "WatchedFile",
    "all_rule_codes",
    "compute_fingerprints",
    "default_fingerprint_path",
    "lint_paths",
    "write_fingerprints",
]
