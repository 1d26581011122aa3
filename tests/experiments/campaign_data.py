"""Experiment data for the tests, produced the one way experiments run.

Every test that needs a module's merged data gets it from
:func:`module_data`: one ``run_campaign`` call over the repo-level
result cache, so a warm tier-1 reads the points instead of simulating
them again.  A test that needs one point's own result (fields the merge
drops) gets it from :func:`point_result`, through the same cache.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

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


def point_result(point_config: Dict[str, Any]) -> Dict[str, Any]:
    """One point's result: a hit in the shared cache, else executed."""
    from repro.campaign import campaign_key, execute_point

    cache = shared_cache()
    key = campaign_key(point_config) if cache is not None else ""
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        return hit[0]
    result = execute_point(point_config)
    if cache is not None:
        cache.put(key, point_config, result, 0.0)
    return result
