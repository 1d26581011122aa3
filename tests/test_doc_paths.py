"""Doc truth: every repo path and ``repro`` module a document names exists.

Scans the inline code spans (single backticks, fenced blocks skipped) of
the maintained documents.  A word counts as a repo-relative path when it
contains ``/`` and starts with one of the repo's top-level directories;
it must exist, or match at least one file when it is a glob.  A dotted
``repro.x.y`` name must import, or resolve as an attribute of the
longest importable prefix.  Historical logs and external texts
(``CHANGES.md``, ``ROADMAP.md``, ``PAPER*.md``, ``SNIPPETS.md``) are not
scanned.
"""

from __future__ import annotations

import glob
import importlib
import os
import re
from typing import List

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = (["README.md", "EXPERIMENTS.md", "DESIGN.md",
         ".claude/skills/verify/SKILL.md"]
        + sorted(os.path.relpath(p, ROOT)
                 for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))))

_FENCE = re.compile(r"```.*?```", re.S)
_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_MODULE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_TOP_DIRS = frozenset(name for name in os.listdir(ROOT)
                      if os.path.isdir(os.path.join(ROOT, name)))


def _spans(doc: str) -> List[str]:
    with open(os.path.join(ROOT, doc)) as fh:
        text = _FENCE.sub("", fh.read())
    return [m.group(1) for m in _SPAN.finditer(text)]


def _repo_paths(span: str) -> List[str]:
    out = []
    for word in span.split():
        # drop punctuation, pytest ids and ``path:line`` suffixes
        path = re.split(r"::|:\d", word.strip(".,;:()'\""))[0]
        if "/" in path and path.split("/")[0] in _TOP_DIRS:
            out.append(path)
    return out


def _path_exists(path: str) -> bool:
    full = os.path.join(ROOT, path)
    if any(ch in path for ch in "*?["):
        return bool(glob.glob(full))
    return os.path.exists(full)


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_and_modules_exist(doc: str) -> None:
    missing = []
    for span in _spans(doc):
        missing += [p for p in _repo_paths(span) if not _path_exists(p)]
        missing += [m for m in _MODULE.findall(span) if not _resolves(m)]
    assert not missing, f"{doc} names what does not exist: {missing}"


def test_the_scan_sees_paths_and_modules() -> None:
    spans = _spans("DESIGN.md")
    assert "tests/integration/test_work_budget.py" in \
        [p for span in spans for p in _repo_paths(span)]
    assert "repro.simulator" in \
        [m for span in spans for m in _MODULE.findall(span)]
    assert not _path_exists("tests/simulator/test_no_such_file.py")
    assert not _resolves("repro.simulator.no_such_module")
