"""The golden A/B script's verdict: exactly the listed cases may differ."""

from __future__ import annotations

import pytest

import golden_ab

BASE = {"a": {"episodes.csv": "1", "trace.csv": "2"}, "b": {"episodes.csv": "3"}}


def test_differences_name_each_file_and_each_case_on_one_side():
    head = {"a": {"episodes.csv": "1", "trace.csv": "9"}, "c": {"episodes.csv": "4"}}
    assert golden_ab.differences(BASE, head) == {
        "a": ["trace.csv differs"], "b": ["only in the base"], "c": ["only in this checkout"],
    }
    assert golden_ab.differences(BASE, BASE) == {}


def test_read_changes_skips_comments_and_blanks():
    text = "# header\n\na: the Adam epsilon changed  # why\nb : reason: with a colon\n"
    assert golden_ab.read_changes(text) == {"a": "the Adam epsilon changed", "b": "reason: with a colon"}
    golden_ab.read_changes(golden_ab.CHANGES_PATH.read_text())  # the committed list reads, empty or not


@pytest.mark.parametrize("text", ["a\n", "a:\n", ": why\n", "a: one\na: two\n"])
def test_read_changes_rejects_a_line_without_one_case_and_a_reason(text):
    with pytest.raises(ValueError, match="expected one 'case: reason' per case"):
        golden_ab.read_changes(text)


def test_verdict_fails_an_unlisted_change_and_a_listed_case_that_did_not_change():
    changed = {"a": ["trace.csv differs"]}
    assert golden_ab.verdict(changed, {"a": "why"}) == []
    assert golden_ab.verdict({}, {}) == []
    assert golden_ab.verdict(changed, {}) == ["a: trace.csv differs (not in golden_changes.txt)"]
    assert golden_ab.verdict({}, {"a": "why"}) == ["a: listed (why) but unchanged"]
