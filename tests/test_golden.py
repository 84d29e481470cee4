"""Every golden CLI report must stay byte-identical (see _golden.py)."""

from __future__ import annotations

import json

from _golden import GOLDEN_FILE, render_all


def test_reports_match_goldens():
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    actual = render_all()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[0]}"
