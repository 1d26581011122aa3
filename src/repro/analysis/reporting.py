"""Finding/suppression/reporter machinery for ``repro check``.

The static checker (:mod:`repro.analysis.static`) reports each finding
as a :class:`Violation` at one source location with a stable contract
code.  This module owns that shape plus everything downstream of it:

* inline pragma suppression (``# repro-check: allow[...]``),
* the fingerprint baseline (checked-in JSON of known debt; fingerprints
  hash path + code + offending source text, not line numbers),
* the three output formats: human text, plain JSON, and SARIF 2.1.0
  (uploadable as a CI artifact and ingestible by code-scanning UIs).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Violation", "normalize_path", "parse_pragmas", "load_baseline",
           "baseline_counts", "save_baseline", "apply_baseline",
           "format_text", "to_json", "to_sarif", "render", "FORMATS"]

FORMATS = ("text", "json", "sarif")

#: SARIF spec version pinned in the emitted document
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


@dataclass(frozen=True)
class Violation:
    """One rule/contract finding at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def fingerprint(self) -> str:
        """Stable identity for the baseline: path + code + source text."""
        key = f"{normalize_path(self.path)}|{self.code}|{self.snippet}"
        return hashlib.sha1(key.encode()).hexdigest()[:16]


def normalize_path(path: str) -> str:
    """Posix path rooted at ``repro/`` so results match from any cwd."""
    posix = path.replace(os.sep, "/")
    marker = posix.rfind("repro/")
    return posix[marker:] if marker >= 0 else posix.rsplit("/", 1)[-1]


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------
_PRAGMA = re.compile(r"#\s*repro-check:\s*allow(?:\[([A-Z0-9, ]+)\])?")


def parse_pragmas(lines: Sequence[str]) -> Dict[int, Optional[frozenset]]:
    """line number -> allowed codes (None = all codes allowed).

    The pragma is ``# repro-check: allow[...]``.  A bare ``allow``
    silences every code on that line; ``allow[C1,C2]`` only the listed
    ones.  A pragma on a comment-only line also covers the *next* line,
    so justifications that do not fit after the code can sit above it.
    """
    out: Dict[int, Optional[frozenset]] = {}

    def _merge(line: int, codes: Optional[frozenset]) -> None:
        if line not in out:
            out[line] = codes
            return
        current = out[line]
        out[line] = (None if current is None or codes is None
                     else current | codes)

    for i, text in enumerate(lines, start=1):
        m = _PRAGMA.search(text)
        if not m:
            continue
        codes = (frozenset(c.strip() for c in m.group(1).split(","))
                 if m.group(1) else None)
        _merge(i, codes)
        if text.strip().startswith("#"):
            _merge(i + 1, codes)
    return out


def suppressed_by_pragma(pragmas: Dict[int, Optional[frozenset]],
                         line: int, code: str) -> bool:
    """Is ``code`` at ``line`` silenced by an inline pragma?"""
    allowed = pragmas.get(line, False)
    return allowed is None or (bool(allowed) and code in allowed)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: str) -> Dict[str, int]:
    """fingerprint -> allowed count.  Missing file = empty baseline."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {str(k): int(v) for k, v in data.get("fingerprints", {}).items()}


def baseline_counts(violations: Iterable[Violation]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for violation in violations:
        fp = violation.fingerprint()
        counts[fp] = counts.get(fp, 0) + 1
    return counts


def save_baseline(path: str, violations: Iterable[Violation]) -> None:
    payload = {
        "comment": "repro check baseline; regenerate with "
                   "`repro check --update-baseline`",
        "version": 1,
        "fingerprints": dict(sorted(baseline_counts(violations).items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def apply_baseline(found: Sequence[Violation],
                   baseline: Optional[Dict[str, int]],
                   ) -> Tuple[List[Violation], List[Violation]]:
    """Split findings into (fresh, baselined) against the baseline."""
    remaining = dict(baseline or {})
    fresh: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in found:
        fp = violation.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            suppressed.append(violation)
        else:
            fresh.append(violation)
    return fresh, suppressed


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def format_text(violations: Sequence[Violation]) -> str:
    return "\n".join(v.format() for v in violations)


def to_json(violations: Sequence[Violation], tool: str) -> Dict[str, object]:
    """A stable, machine-readable dump (the non-SARIF JSON format)."""
    return {
        "tool": tool,
        "findings": [
            {"path": normalize_path(v.path), "line": v.line, "col": v.col,
             "code": v.code, "message": v.message, "snippet": v.snippet,
             "fingerprint": v.fingerprint()}
            for v in violations
        ],
    }


def to_sarif(violations: Sequence[Violation], tool: str,
             rules: Sequence[Tuple[str, str]]) -> Dict[str, object]:
    """A minimal, valid SARIF 2.1.0 run.

    ``rules`` is the full catalog as ``(code, summary)`` pairs — listed
    even when clean, so the consumer can distinguish "rule passed" from
    "rule unknown".  Fingerprints ride along as ``partialFingerprints``
    so code-scanning UIs track findings across line moves exactly like
    the baseline file does.
    """
    results = []
    for v in violations:
        results.append({
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "partialFingerprints": {"reproAnalysis/v1": v.fingerprint()},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": normalize_path(v.path)},
                    "region": {"startLine": v.line,
                               "startColumn": v.col + 1},
                },
            }],
        })
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": tool,
                "informationUri":
                    "https://github.com/paper-repro/newmadeleine-mpich2",
                "rules": [
                    {"id": code,
                     "shortDescription": {"text": summary}}
                    for code, summary in rules
                ],
            }},
            "results": results,
        }],
    }


def render(violations: Sequence[Violation], fmt: str, tool: str,
           rules: Sequence[Tuple[str, str]]) -> str:
    """Render findings in one of :data:`FORMATS`."""
    if fmt == "text":
        return format_text(violations)
    if fmt == "json":
        return json.dumps(to_json(violations, tool), indent=2, sort_keys=True)
    if fmt == "sarif":
        return json.dumps(to_sarif(violations, tool, rules), indent=2)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
