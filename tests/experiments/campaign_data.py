"""Experiment data for the tests, produced the one way experiments run.

Every test that needs a module's merged data gets it from
:func:`module_data`: one ``run_campaign`` call over the repo-level
result cache, so a warm tier-1 reads the points instead of simulating
them again.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

REPO_ROOT = Path(__file__).parents[2]


def shared_cache() -> Optional[Any]:
    """The repo-level result cache (gitignored); None if unwritable."""
    from repro.campaign import ResultCache

    try:
        return ResultCache(str(REPO_ROOT / ".repro-cache"))
    except OSError:
        return None


@lru_cache(maxsize=None)
def module_data(module: str, fast: bool = True) -> Any:
    """``module``'s merged data, once per process (treat as read-only)."""
    from repro.campaign import run_campaign

    report = run_campaign(modules=[module], fast=fast, cache=shared_cache())
    return report.modules[module]
