"""Band-level region detection must equal row-by-row detection exactly.

:meth:`StreamingRegionFinder.feed_rows` clusters a whole band of DP rows in
one vectorised pass and skips rows without hits; these tests hold it to the
per-row :meth:`~StreamingRegionFinder.feed` oracle, comparing the ordered
``finish()`` lists field by field (``Region`` equality covers every field,
including ``last_row`` and the recent column extent).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import RegionConfig, StreamingRegionFinder


def _row_by_row(config: RegionConfig, i0: int, rows: np.ndarray) -> StreamingRegionFinder:
    finder = StreamingRegionFinder(config)
    for r, row in enumerate(rows):
        finder.feed(i0 + r, row)
    return finder


def _by_bands(config, i0, rows, cuts) -> StreamingRegionFinder:
    finder = StreamingRegionFinder(config)
    bounds = [0, *sorted(set(cuts)), len(rows)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            finder.feed_rows(i0 + lo, rows[lo:hi])
    return finder


@st.composite
def score_bands(draw):
    """Sparse score bands with values clustered around the threshold.

    Values are drawn from ``{0, thr-1, thr, thr+1, thr+k}`` so exact-threshold
    cells are common; a random subset of rows is zeroed (rows without hits,
    and gaps long enough to retire several regions at once).
    """
    threshold = draw(st.integers(1, 6))
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))
    rng = np.random.default_rng(seed)
    palette = np.array([threshold - 1, threshold, threshold + 1, threshold + 7])
    rows = np.where(
        rng.random((h, w + 1)) < density, rng.choice(palette, size=(h, w + 1)), 0
    ).astype(np.int32)
    rows[:, 0] = draw(st.sampled_from([0, threshold]))  # boundary column never counts
    blank = draw(st.lists(st.integers(0, h - 1), max_size=h))
    rows[blank] = 0
    config = RegionConfig(
        threshold=threshold,
        col_tolerance=draw(st.integers(0, 4)),
        row_tolerance=draw(st.integers(0, 4)),
        min_hits=draw(st.integers(1, 3)),
    )
    cuts = draw(st.lists(st.integers(1, max(1, h - 1)), max_size=4))
    i0 = draw(st.integers(1, 500))
    return config, i0, rows, cuts


@settings(max_examples=300, deadline=None)
@given(score_bands())
def test_feed_rows_matches_row_by_row_feed(case):
    config, i0, rows, cuts = case
    oracle = _row_by_row(config, i0, rows)
    banded = _by_bands(config, i0, rows, cuts)
    # Retirement order too, not only the sorted result.
    assert banded._finished == oracle._finished
    assert banded._active == oracle._active
    assert banded.finish() == oracle.finish()


def test_hitless_rows_still_retire_regions():
    config = RegionConfig(threshold=5, col_tolerance=1, row_tolerance=0)
    rows = np.zeros((4, 10), dtype=np.int32)
    rows[0, 2] = 5  # exactly at the threshold
    rows[0, 8] = 6
    # rows 1..3 hold no hits: both regions retire in the same gap
    oracle = _row_by_row(config, 1, rows)
    banded = _by_bands(config, 1, rows, [])
    assert [r.region for r in banded._finished] == [r.region for r in oracle._finished]
    assert len(banded._finished) == 2 and banded._active == []
    assert banded.finish() == oracle.finish()


def test_regions_retire_in_last_row_order():
    """A region last seen earlier retires first, whatever its list position."""
    config = RegionConfig(threshold=3, col_tolerance=0, row_tolerance=2)
    rows = np.zeros((8, 12), dtype=np.int32)
    rows[0, 10] = 4  # region A opens first (DP row 1) ...
    rows[2, 10] = 4  # ... and is last hit on DP row 3
    rows[1, 2] = 4  # region B: only DP row 2
    banded = _by_bands(config, 1, rows, [])
    oracle = _row_by_row(config, 1, rows)
    assert [r.last_row for r in oracle._finished] == [2, 3]
    assert banded._finished == oracle._finished


def test_feed_rows_rejects_rows_out_of_order():
    finder = StreamingRegionFinder(RegionConfig(threshold=2))
    finder.feed_rows(5, np.zeros((3, 4), dtype=np.int32))
    with pytest.raises(ValueError, match="increasing order"):
        finder.feed_rows(7, np.zeros((1, 4), dtype=np.int32))
    with pytest.raises(ValueError, match="increasing order"):
        finder.feed(7, np.zeros(4, dtype=np.int32))


def test_empty_band_is_a_no_op():
    finder = StreamingRegionFinder(RegionConfig(threshold=2))
    finder.feed_rows(1, np.zeros((0, 4), dtype=np.int32))
    finder.feed(1, np.array([0, 3, 0, 0], dtype=np.int32))
    assert len(finder.finish()) == 1
