"""Tests for the hint-set (optimizer steering) interface."""

import pytest

from repro.db.hints import (
    ALL_KNOBS,
    NUM_HINT_SETS,
    HintSet,
    all_hint_sets,
    default_hint_set,
)
from repro.errors import HintError


def test_there_are_exactly_49_hint_sets():
    assert NUM_HINT_SETS == 49
    assert len(all_hint_sets()) == 49


def test_default_hint_set_is_first_and_all_enabled():
    hints = all_hint_sets()
    assert hints[0].is_default
    assert all(getattr(hints[0], knob) for knob in ALL_KNOBS)


def test_hint_sets_are_unique():
    assert len(set(all_hint_sets())) == 49


def test_every_hint_set_allows_a_join_and_a_scan():
    for hint in all_hint_sets():
        assert hint.allowed_join_operators()
        assert hint.allowed_scan_operators()


def test_disabling_all_joins_is_rejected():
    with pytest.raises(HintError):
        HintSet(enable_hashjoin=False, enable_mergejoin=False, enable_nestloop=False)


def test_disabling_all_scans_is_rejected():
    with pytest.raises(HintError):
        HintSet(
            enable_indexscan=False,
            enable_seqscan=False,
            enable_indexonlyscan=False,
        )


def test_default_hint_set_helper():
    assert default_hint_set().is_default


def test_allowed_operators_reflect_disabled_knobs():
    hint = HintSet(enable_nestloop=False, enable_indexscan=False)
    assert "nested_loop" not in hint.allowed_join_operators()
    assert "index_scan" not in hint.allowed_scan_operators()
    assert "hash_join" in hint.allowed_join_operators()
    assert "seq_scan" in hint.allowed_scan_operators()
