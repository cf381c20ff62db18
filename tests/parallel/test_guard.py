"""Unit coverage for :mod:`repro.parallel.guard` (crash-safe waiting)."""

from __future__ import annotations

import pytest

from repro.parallel.guard import poll_until


def test_poll_until_returns_once_condition_holds():
    state = {"n": 0}

    def condition():
        state["n"] += 1
        return state["n"] >= 3

    poll_until(condition, timeout=5.0, what="counter")
    assert state["n"] == 3


def test_poll_until_times_out_with_message():
    with pytest.raises(TimeoutError, match="band_done stuck"):
        poll_until(lambda: False, timeout=0.05, what="band_done stuck")
