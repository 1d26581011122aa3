"""Golden regression suite: every measured number in EXPERIMENTS.md.

Each ``tests/goldens/*.json`` file pins one figure's measured values
(with tolerances) and the shape claims around them (orderings,
constant-overhead differences, parity ratios).  The data is produced
through the campaign runner, so a warm ``.repro-cache`` makes reruns
nearly free; fig8 uses an explicit subset of its points because the
full class-C figure takes minutes.

Check operations (see ``_evaluate``):

``value`` (default)  ``data[path] * scale`` is close to ``value``
``diff``             ``(data[path] - data[path_b]) * scale``
``ratio``            ``data[path] / data[path_b]``
``max``              ``max(data[path]) * scale``
``order``            values at ``paths`` are strictly increasing
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from tests.experiments.campaign_data import module_data, point_result

GOLDEN_DIR = Path(__file__).parents[1] / "goldens"


def _load_goldens() -> Dict[str, Dict[str, Any]]:
    out = {}
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        with open(path) as fh:
            out[path.stem] = json.load(fh)
    return out


GOLDENS = _load_goldens()

CASES: List[Tuple[str, str]] = [
    (stem, check["name"])
    for stem, golden in GOLDENS.items()
    for check in golden["checks"]
]


@lru_cache(maxsize=None)
def _figure_data(stem: str) -> Any:
    """Produce the data a golden's checks index into (once per figure)."""
    golden = GOLDENS[stem]
    if golden["mode"] == "merged":
        return module_data(golden["module"], golden["fast"])
    # points mode: execute only the listed subset of the module's points
    import importlib

    mod = importlib.import_module(f"repro.experiments.{golden['module']}")
    wanted = set(golden["point_keys"])
    points = [p for p in mod.points(fast=golden["fast"]) if p.key in wanted]
    missing = wanted - {p.key for p in points}
    assert not missing, f"golden {stem} names unknown point keys: {missing}"
    return {point.key: point_result(point.config()) for point in points}


def _resolve(data: Any, path: List[Any]) -> Any:
    cur = data
    for step in path:
        if isinstance(cur, dict) and step not in cur:
            step = int(step)
        cur = cur[step]
    return cur


def _evaluate(data: Any, check: Dict[str, Any]) -> None:
    op = check.get("op", "value")
    if op == "order":
        values = [_resolve(data, p) for p in check["paths"]]
        assert all(a < b for a, b in zip(values, values[1:])), (
            f"{check['name']}: expected strictly increasing, got {values}")
        return
    scale = check.get("scale", 1.0)
    if op == "value":
        got = _resolve(data, check["path"]) * scale
    elif op == "diff":
        got = (_resolve(data, check["path"])
               - _resolve(data, check["path_b"])) * scale
    elif op == "ratio":
        got = _resolve(data, check["path"]) / _resolve(data, check["path_b"])
    elif op == "max":
        got = max(_resolve(data, check["path"])) * scale
    else:  # pragma: no cover - malformed golden
        raise AssertionError(f"unknown golden op {op!r}")
    expected = check["value"]
    rtol = check.get("rtol", 0.0)
    atol = check.get("atol", 0.0)
    assert math.isclose(got, expected, rel_tol=rtol, abs_tol=atol), (
        f"{check['name']}: got {got:.6g}, golden {expected:.6g} "
        f"(rtol={rtol}, atol={atol})")


@pytest.mark.parametrize("stem,name", CASES,
                         ids=[f"{s}:{n}" for s, n in CASES])
def test_golden(stem: str, name: str) -> None:
    golden = GOLDENS[stem]
    check = next(c for c in golden["checks"] if c["name"] == name)
    _evaluate(_figure_data(stem), check)


def test_every_figure_has_a_golden() -> None:
    """Each experiment module must be pinned by a golden file."""
    from repro.experiments import MODULES

    covered = {g["module"] for g in GOLDENS.values()}
    assert covered == set(MODULES), (
        f"goldens missing for: {set(MODULES) - covered}")
