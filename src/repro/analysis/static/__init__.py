"""The static determinism and contract checker (``repro check``).

It builds an interprocedural view of all of ``src/repro``:

1. :mod:`~repro.analysis.static.callgraph` parses every module and
   resolves calls, method dispatch, imports/re-exports, lambdas and
   callback registrations into one :class:`CallGraph`;
2. :mod:`~repro.analysis.static.effects` infers per-function effects
   (blocking, yielding, host-clock, RNG, trace emission, shared-state
   mutation) and propagates them callee-to-caller to a fixpoint, with
   the audited ``hostclock``/``rng_stream`` funnels absorbing their raw
   effects;
3. :mod:`~repro.analysis.static.contracts` enforces the contracts
   (RPC001–RPC010) and offers an advisory dead-code report.

Suppression goes through the :mod:`repro.analysis.reporting`
machinery: inline ``# repro-check: allow[RPC...]`` pragmas and a
checked-in fingerprint baseline (``.repro-check-baseline.json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import (Violation, apply_baseline,
                                      parse_pragmas, save_baseline,
                                      suppressed_by_pragma)
from repro.analysis.static.callgraph import (CallGraph, FunctionInfo,
                                             build_package)
from repro.analysis.static.contracts import (CONTRACTS, contract_catalog,
                                             dead_public_functions,
                                             run_contracts)
from repro.analysis.static.effects import EffectAnalysis

__all__ = ["CheckResult", "CONTRACTS", "contract_catalog", "check_package",
           "run_check", "save_baseline", "default_target"]


@dataclass
class CheckResult:
    """Outcome of one ``repro check`` run."""

    violations: List[Violation]          # actionable findings
    baselined: List[Violation]           # suppressed by the baseline
    files: int
    graph: CallGraph
    analysis: EffectAnalysis
    dead: List[FunctionInfo] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


def default_target() -> str:
    """The installed ``repro`` package directory (check target default)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _drop_pragma_suppressed(graph: CallGraph,
                            found: List[Violation]) -> List[Violation]:
    pragmas_by_path: Dict[str, Dict[int, Optional[frozenset]]] = {}
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        pragmas_by_path[mod.path] = parse_pragmas(mod.lines)
    kept: List[Violation] = []
    for violation in found:
        pragmas = pragmas_by_path.get(violation.path, {})
        if not suppressed_by_pragma(pragmas, violation.line,
                                    violation.code):
            kept.append(violation)
    return kept


def check_package(root: str, dead_code: bool = False,
                  ) -> Tuple[List[Violation], CallGraph, EffectAnalysis,
                             List[FunctionInfo]]:
    """Analyze the package at ``root``; pragma suppression applied."""
    graph = build_package(root)
    analysis = EffectAnalysis(graph)
    found = _drop_pragma_suppressed(graph, run_contracts(graph, analysis))
    dead = dead_public_functions(graph) if dead_code else []
    return found, graph, analysis, dead


def run_check(root: Optional[str] = None,
              baseline: Optional[Dict[str, int]] = None,
              dead_code: bool = False) -> CheckResult:
    """Check ``root`` (default: the installed repro package)."""
    target = root or default_target()
    found, graph, analysis, dead = check_package(target,
                                                 dead_code=dead_code)
    fresh, suppressed = apply_baseline(found, baseline)
    return CheckResult(violations=fresh, baselined=suppressed,
                       files=len(graph.modules), graph=graph,
                       analysis=analysis, dead=dead)
