"""The static determinism and contract checker (``repro check``).

:mod:`~repro.analysis.static.contracts` parses every module of
``src/repro`` and runs the contracts (nine codes, RPC001–RPC010)
as per-module passes over the syntax trees: nothing is imported, no
call graph is built, and each name is resolved in its own module
(import aliases, the enclosing class, module-level defs).

Suppression goes through the :mod:`repro.analysis.reporting`
machinery: inline ``# repro-check: allow[RPC...]`` pragmas and a
checked-in fingerprint baseline (``.repro-check-baseline.json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import Violation, apply_baseline, save_baseline
from repro.analysis.static.contracts import (CONTRACTS, contract_catalog,
                                             parse_package, run_contracts)

__all__ = ["CheckResult", "CONTRACTS", "contract_catalog", "check_package",
           "run_check", "save_baseline", "default_target"]


@dataclass
class CheckResult:
    """Outcome of one ``repro check`` run."""

    violations: List[Violation]          # actionable findings
    baselined: List[Violation]           # suppressed by the baseline
    files: int

    @property
    def clean(self) -> bool:
        return not self.violations


def default_target() -> str:
    """The installed ``repro`` package directory (check target default)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def check_package(root: str) -> List[Violation]:
    """Check the package at ``root``; pragma suppression applied."""
    return run_contracts(parse_package(root))


def run_check(root: Optional[str] = None,
              baseline: Optional[Dict[str, int]] = None) -> CheckResult:
    """Check ``root`` (default: the installed repro package)."""
    modules = parse_package(root or default_target())
    fresh, suppressed = apply_baseline(run_contracts(modules), baseline)
    return CheckResult(violations=fresh, baselined=suppressed,
                       files=len(modules))
