"""One experiment module per figure of the paper's evaluation section,
plus the extensions.

Run them through the campaign runner::

    python -m repro campaign                      # every module
    python -m repro campaign fig4_infiniband --fast

Each module exposes ``points(fast=False)``, the independent simulations
it measures; ``merge(results, fast=False)``, which folds the
``{point.key: result}`` map into the figure's data; and
``render(data)``, which prints it in the paper's layout.  ``fast=True``
shrinks sweeps/classes for quick checks.
"""

from typing import Tuple

#: every experiment module, in campaign order: the paper's figures,
#: then the extensions
MODULES: Tuple[str, ...] = (
    "fig4_infiniband",
    "fig5_multirail",
    "fig6_pioman_overhead",
    "fig7_overlap",
    "fig8_nas",
    "ext_is_datatypes",
    "ext_stencil_overlap",
    "ext_collectives",
    "ext_topology",
    "ext_progress",
)

__all__ = ["MODULES"]
