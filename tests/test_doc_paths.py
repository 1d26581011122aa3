"""Doc truth: every repo path, ``repro`` module and ``repro`` subcommand
a document names exists.

Scans the inline code spans (single backticks, fenced blocks skipped) of
the maintained documents.  A word counts as a repo-relative path when it
contains ``/`` and starts with one of the repo's top-level directories;
it must exist, or match at least one file when it is a glob.  A dotted
``repro.x.y`` name must import, or resolve as an attribute of the
longest importable prefix.  A subcommand — ``python -m repro X`` in a
fenced block or a span, or a span that starts ``repro X`` — must be one
the CLI parser accepts.  A module run as ``python -m repro.x.y`` (fenced
or in a span) must be runnable: a module with an
``if __name__ == "__main__"`` guard, or a package with a
``__main__.py``.  Historical logs and external texts (``CHANGES.md``,
``ROADMAP.md``, ``PAPER*.md``, ``SNIPPETS.md``) are not scanned.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import importlib.util
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
_FENCED_COMMAND = re.compile(r"python -m repro ([a-z][\w-]*)")
_SPAN_COMMAND = re.compile(r"(?:^|python -m )repro ([a-z][\w-]*)")
_RUN_MODULE = re.compile(r"python -m (repro(?:\.\w+)*)")
_MAIN_GUARD = re.compile(r"^if __name__ == [\"']__main__[\"']:", re.M)
_TOP_DIRS = frozenset(name for name in os.listdir(ROOT)
                      if os.path.isdir(os.path.join(ROOT, name)))


def _read(doc: str) -> str:
    with open(os.path.join(ROOT, doc)) as fh:
        return fh.read()


def _spans(doc: str) -> List[str]:
    text = _FENCE.sub("", _read(doc))
    return [m.group(1) for m in _SPAN.finditer(text)]


def _subcommands(doc: str) -> List[str]:
    fenced = "\n".join(_FENCE.findall(_read(doc)))
    return (_FENCED_COMMAND.findall(fenced)
            + [m.group(1) for span in _spans(doc)
               for m in _SPAN_COMMAND.finditer(span)])


def _run_modules(doc: str) -> List[str]:
    text = "\n".join(_FENCE.findall(_read(doc)) + _spans(doc))
    return _RUN_MODULE.findall(text)


def _runnable(name: str) -> bool:
    try:
        spec = importlib.util.find_spec(name)
    except ImportError:
        return False
    if spec is None or spec.origin is None:
        return False
    if spec.submodule_search_locations is not None:
        return os.path.exists(os.path.join(os.path.dirname(spec.origin),
                                           "__main__.py"))
    with open(spec.origin) as fh:
        return bool(_MAIN_GUARD.search(fh.read()))


def _cli_subcommands() -> List[str]:
    from repro.cli import build_parser

    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


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


@pytest.mark.parametrize("doc", DOCS)
def test_named_subcommands_exist(doc: str) -> None:
    known = set(_cli_subcommands())
    unknown = sorted({c for c in _subcommands(doc) if c not in known})
    assert not unknown, f"{doc} names repro subcommands the CLI lacks: " \
                        f"{unknown}"


@pytest.mark.parametrize("doc", DOCS)
def test_run_modules_are_runnable(doc: str) -> None:
    dead = sorted({m for m in _run_modules(doc) if not _runnable(m)})
    assert not dead, f"{doc} runs modules with no entry point: {dead}"


def test_the_scan_sees_run_modules() -> None:
    assert "repro" in _run_modules("README.md")
    assert _runnable("repro") and _runnable("repro.cli")
    # importable, but no entry point
    assert not _runnable("repro.experiments.fig4_infiniband")
    assert not _runnable("repro.no_such_module")


def test_the_scan_sees_subcommands() -> None:
    assert {"check", "race"} <= set(_subcommands("docs/ANALYSIS.md"))
    assert "campaign" in _subcommands("EXPERIMENTS.md")
    assert "check" in _cli_subcommands()


def test_the_scan_sees_paths_and_modules() -> None:
    spans = _spans("DESIGN.md")
    assert "tests/integration/test_work_budget.py" in \
        [p for span in spans for p in _repo_paths(span)]
    assert "repro.simulator" in \
        [m for span in spans for m in _MODULE.findall(span)]
    assert not _path_exists("tests/simulator/test_no_such_file.py")
    assert not _resolves("repro.simulator.no_such_module")


def test_readme_api_paragraph_names_every_communicator_method() -> None:
    """README's API paragraph lists exactly the public methods of
    ``Communicator``: every lowercase name in its code spans (split on
    ``/``) is one, and every one is named."""
    from repro.mpi import Communicator

    text = _read("README.md")
    start = text.index("Rank programs are generator functions over a "
                       "`Communicator`")
    paragraph = text[start:text.index("\n\n", start)]
    named = {word for span in _SPAN.findall(paragraph)
             for word in span.split("/")
             if re.fullmatch(r"[a-z_][a-z0-9_]*", word)}
    public = {name for name, member in vars(Communicator).items()
              if callable(member) and not name.startswith("_")}
    assert named == public, (
        f"README lists {sorted(named - public)} that Communicator lacks "
        f"and omits {sorted(public - named)}")
