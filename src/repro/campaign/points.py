"""Addressable experiment points.

A :class:`Point` is the smallest independently simulatable unit of an
experiment module: one (stack, workload, size/kernel, seed) cell of a
figure.  Points are **pure data** — the stack is referenced by preset
name plus keyword overrides, never by object — so a point can be

* pickled to a worker process,
* digested into a content-addressed cache key, and
* re-executed bit-identically by :func:`repro.campaign.executors.execute_point`.

Experiment modules expose ``points(fast)`` returning their point list
and ``merge(results, fast)`` rebuilding the module's result dict from
``{point.key: result}``; :func:`repro.campaign.run_campaign` is the one
path that executes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["stack_ref", "Point"]


def stack_ref(preset: str, **kw: Any) -> Dict[str, Any]:
    """A serializable reference to a stack preset.

    ``preset`` names an entry of :data:`repro.config.STACKS`
    (``mpich2_nmad``, ``mvapich2``, ...); ``kw`` override its keyword
    arguments.  Sequences
    must be passed as lists (JSON has no tuples) — the executor
    re-tuples ``rails``.
    """
    return {"preset": preset, "kw": dict(kw)}


@dataclass(frozen=True)
class Point:
    """One addressable cell of an experiment module."""

    #: experiment module short name, e.g. ``"fig4_infiniband"``
    module: str
    #: unique key within the module, e.g. ``"lat/MVAPICH2/4"``
    key: str
    #: executor kind: ``netpipe`` | ``overlap`` | ``nas`` | ``stencil``
    kind: str
    #: kind-specific JSON-clean parameters (stacks via :func:`stack_ref`)
    params: Dict[str, Any] = field(default_factory=dict)
    #: RNG seed the simulation streams derive from (0 = preset default)
    seed: int = 0

    @property
    def point_id(self) -> str:
        return f"{self.module}:{self.key}"

    def config(self) -> Dict[str, Any]:
        """The canonical JSON-clean dict fed to executor and cache key."""
        return {
            "module": self.module,
            "key": self.key,
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
        }
