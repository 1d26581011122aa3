"""Process-parallel experiment campaigns with a content-addressed cache.

Every experiment runs through this package.  Each module is decomposed
into addressable **points** (stack x workload x size x seed); the
runner executes them in-process or across a
:class:`concurrent.futures.ProcessPoolExecutor` with deterministic
result merging, and memoizes each point in an on-disk cache keyed by a
digest of (point config, hardware model params, ``repro`` source tree)
— warm reruns only recompute what changed.

Entry points::

    python -m repro campaign --workers 4                # CLI, every module
    python -m repro campaign fig8_nas --fast            # CLI, one module
    from repro.campaign import run_campaign             # library

See ``docs/CAMPAIGNS.md`` for the cache layout and invalidation rules.
"""

from repro.campaign.cache import (
    ResultCache,
    campaign_key,
    canonical_json,
    hardware_fingerprint,
    source_tree_digest,
)
from repro.campaign.executors import build_stack, execute_point
from repro.campaign.points import Point, stack_ref
from repro.campaign.runner import (
    CampaignReport,
    campaign_modules,
    run_campaign,
)

__all__ = [
    "CampaignReport",
    "Point",
    "ResultCache",
    "build_stack",
    "campaign_key",
    "campaign_modules",
    "canonical_json",
    "execute_point",
    "hardware_fingerprint",
    "run_campaign",
    "source_tree_digest",
    "stack_ref",
]
