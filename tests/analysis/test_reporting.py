"""Shared reporter machinery: pragmas, baselines, output formats."""

import json

from repro.analysis.reporting import (Violation, apply_baseline,
                                      baseline_counts, load_baseline,
                                      normalize_path, parse_pragmas, render,
                                      save_baseline, suppressed_by_pragma,
                                      to_json, to_sarif)


def v(code="RPC003", line=3, snippet="x = random.random()"):
    return Violation(path="src/repro/a.py", line=line, col=4, code=code,
                     message="a finding", snippet=snippet)


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------

def test_normalize_path_roots_at_repro():
    assert normalize_path("/home/x/src/repro/nmad/core.py") == \
        "repro/nmad/core.py"
    assert normalize_path("elsewhere.py") == "elsewhere.py"


def test_fingerprint_ignores_line_moves():
    assert v(line=3).fingerprint() == v(line=99).fingerprint()
    assert v().fingerprint() != v(snippet="y = 1").fingerprint()
    assert v().fingerprint() != v(code="RPC002").fingerprint()


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------

def test_pragma_same_line():
    pragmas = parse_pragmas(["x = 1  # repro-check: allow[RPC003]"])
    assert suppressed_by_pragma(pragmas, 1, "RPC003")
    assert not suppressed_by_pragma(pragmas, 1, "RPC002")


def test_pragma_bare_allow_silences_all_codes():
    pragmas = parse_pragmas(["x = 1  # repro-check: allow"])
    assert suppressed_by_pragma(pragmas, 1, "RPC002")
    assert suppressed_by_pragma(pragmas, 1, "RPC999")


def test_comment_only_pragma_covers_next_line():
    pragmas = parse_pragmas([
        "# repro-check: allow[RPC007] build-time wiring",
        "self.stacks.append(stack)",
    ])
    assert suppressed_by_pragma(pragmas, 2, "RPC007")


def test_trailing_pragma_does_not_leak_to_next_line():
    pragmas = parse_pragmas([
        "x = 1  # repro-check: allow[RPC003]",
        "y = 2",
    ])
    assert not suppressed_by_pragma(pragmas, 2, "RPC003")


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    path = str(tmp_path / "baseline.json")
    violations = [v(), v(snippet="other = time.time()", code="RPC002")]
    save_baseline(path, violations)
    loaded = load_baseline(path)
    assert loaded == baseline_counts(violations)
    fresh, suppressed = apply_baseline(violations, loaded)
    assert fresh == [] and len(suppressed) == 2


def test_baseline_counts_duplicates():
    fresh, suppressed = apply_baseline([v(), v()], {v().fingerprint(): 1})
    assert len(fresh) == 1 and len(suppressed) == 1


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) == {}


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_json_format_carries_fingerprints():
    doc = to_json([v()], tool="repro-check")
    [finding] = doc["findings"]
    assert finding["fingerprint"] == v().fingerprint()
    assert finding["path"] == "repro/a.py"


def test_sarif_is_valid_2_1_0():
    doc = to_sarif([v()], tool="repro-check",
                   rules=[("RPC003", "stray rng")])
    assert doc["version"] == "2.1.0"
    [run] = doc["runs"]
    assert run["tool"]["driver"]["rules"] == [
        {"id": "RPC003", "shortDescription": {"text": "stray rng"}}]
    [result] = run["results"]
    assert result["ruleId"] == "RPC003"
    assert result["partialFingerprints"]["reproAnalysis/v1"] == \
        v().fingerprint()
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 3, "startColumn": 5}


def test_sarif_lists_rules_even_when_clean():
    doc = to_sarif([], tool="repro-check", rules=[("RPC002", "wall clock")])
    assert doc["runs"][0]["results"] == []
    assert doc["runs"][0]["tool"]["driver"]["rules"]


def test_render_dispatches_and_rejects_unknown():
    assert "RPC003" in render([v()], "text", "t", [])
    assert json.loads(render([v()], "json", "t", []))["tool"] == "t"
    assert json.loads(render([v()], "sarif", "t", []))["version"] == "2.1.0"
    try:
        render([], "yaml", "t", [])
    except ValueError as exc:
        assert "yaml" in str(exc)
    else:                                        # pragma: no cover
        raise AssertionError("expected ValueError")
