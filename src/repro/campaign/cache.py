"""Content-addressed on-disk cache for campaign point results.

The cache key of a point is the SHA-256 of the canonical JSON of

* the **point config** (module, key, kind, seed, params),
* the **hardware fingerprint** (every NIC/node/memory cost preset and
  default protocol-cost dataclass the model is built from), and
* the **source-tree digest** (every ``.py`` file under ``repro``).

Any change to a knob, a hardware constant, or a line of simulator code
therefore invalidates exactly the results it could have affected — a
warm rerun after an experiment-only edit recomputes nothing, and a
rerun after an engine edit recomputes everything, which is the safe
direction.

Layout (one file per point, first two hex chars shard the directory)::

    <cache_dir>/
        v1/
            ab/abcdef....json    # {"point": ..., "result": ..., "elapsed": ...}

Writes are atomic (tmp file + ``os.replace``), so concurrent writers
(e.g. pytest-xdist workers warming the same cache) can only race to
produce identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

#: bump to invalidate every existing cache entry on format changes
CACHE_FORMAT = "v1"

#: default cache location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro-cache"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def source_tree_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Files are visited in sorted relative-path order; each contributes
    its path and raw bytes, so renames and edits both change the
    digest.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        rel = os.path.relpath(path, root)
        h.update(rel.encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _as_plain(obj: Any) -> Any:
    """Dataclass -> dict (recursively), tuples -> lists."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _as_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_plain(v) for k, v in obj.items()}
    return obj


@lru_cache(maxsize=1)
def _hardware_fingerprint_cached() -> str:
    return canonical_json(hardware_fingerprint())


def hardware_fingerprint() -> Dict[str, Any]:
    """Every hardware/cost constant the simulations are calibrated with.

    Covers the NIC and node presets, the native-stack comparator cost
    tables, and the default protocol-cost dataclasses.  Returned as a
    plain JSON-clean dict so tests can perturb single fields and verify
    the cache key moves.
    """
    from repro.comparators import presets as comparator_presets
    from repro.hardware import presets as hw
    from repro.mpich2.ch3 import CH3Costs
    from repro.mpich2.nemesis.shm import ShmCosts
    from repro.nmad.core import NmadCosts
    from repro.pioman import PIOManParams

    fp: Dict[str, Any] = {}
    for name in dir(hw):
        value = getattr(hw, name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fp[f"hw.{name}"] = _as_plain(value)
    for name in dir(comparator_presets):
        value = getattr(comparator_presets, name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fp[f"native.{name}"] = _as_plain(value)
    fp["costs.NmadCosts"] = _as_plain(NmadCosts())
    fp["costs.CH3Costs"] = _as_plain(CH3Costs())
    fp["costs.ShmCosts"] = _as_plain(ShmCosts())
    fp["costs.PIOManParams"] = _as_plain(PIOManParams())
    return fp


def campaign_key(point_config: Dict[str, Any],
                 hw: Optional[Dict[str, Any]] = None,
                 code_digest: Optional[str] = None) -> str:
    """The content-addressed cache key of one point.

    ``hw`` and ``code_digest`` default to the live hardware fingerprint
    and source-tree digest; tests pass explicit values to probe key
    sensitivity.
    """
    hw_text = canonical_json(hw) if hw is not None \
        else _hardware_fingerprint_cached()
    payload = canonical_json({
        "format": CACHE_FORMAT,
        "point": point_config,
        "hw": hw_text,
        "code": code_digest if code_digest is not None
        else source_tree_digest(),
    })
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """One directory of memoized point results."""

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR):
        self.root = os.path.join(cache_dir, CACHE_FORMAT)
        #: per-point run telemetry lands beside the versioned store (it
        #: describes runs, not results, so it survives format bumps)
        self.telemetry_path = os.path.join(cache_dir, "telemetry.jsonl")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Tuple[Any, float]]:
        """``(result, original_elapsed_seconds)`` or None on a miss."""
        try:
            with open(self._path(key)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        return entry["result"], entry.get("elapsed", 0.0)

    def put(self, key: str, point_config: Dict[str, Any], result: Any,
            elapsed: float) -> None:
        """Store atomically; concurrent writers of one key are harmless."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump({"point": point_config, "result": result,
                       "elapsed": elapsed}, fh, sort_keys=True)
        os.replace(tmp, path)

    def __len__(self) -> int:
        n = 0
        if not os.path.isdir(self.root):
            return 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            n += sum(1 for f in filenames if f.endswith(".json"))
        return n
