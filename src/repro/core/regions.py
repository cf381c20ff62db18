"""Streaming detection of similar regions from DP score rows.

The paper's heuristic variant (Section 4.1) keeps per-cell candidate state to
report the begin/end coordinates of every good local alignment.  At cluster
scale this repository runs the vectorized score kernel instead, and recovers
the same *regions* by clustering above-threshold cells on the fly: cells
scoring at least a threshold are grouped into rectangles when they are close
in both the row and column directions (high-scoring local alignments form
contiguous diagonal streaks of above-threshold cells).  Each rectangle's
summit cell is the alignment endpoint; the rectangle itself reproduces the
begin/end coordinate pairs stored in the paper's alignment queue (Table 2,
Fig. 14).

The finder is strictly streaming -- it sees each row once and keeps only the
active rectangles -- so it composes with the two-row linear-space scan and
with the band/block decompositions of the parallel strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..seq.alphabet import encode
from .alignment import LocalAlignment
from .scoring import DEFAULT_SCORING, Scoring


@dataclass(frozen=True)
class RegionConfig:
    """Clustering parameters.

    ``threshold`` plays the role of the paper's *minimal score* parameter
    ("small values for minimal scores generate more similar regions",
    Section 4.4).  The tolerances control how far apart two above-threshold
    cells may be while still being attributed to the same similar region.
    """

    threshold: int
    col_tolerance: int = 16
    row_tolerance: int = 16
    min_hits: int = 1

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.col_tolerance < 0 or self.row_tolerance < 0:
            raise ValueError("tolerances must be non-negative")
        if self.min_hits < 1:
            raise ValueError("min_hits must be at least 1")


@dataclass
class Region:
    """A similar region: bounding box, summit score, and hit statistics.

    Coordinates are 0-based half-open over the input sequences (DP cell
    ``(i, j)`` covers ``s[i-1]`` / ``t[j-1]``).
    """

    s_start: int
    s_end: int
    t_start: int
    t_end: int
    score: int
    peak_i: int
    peak_j: int
    n_hits: int = 0
    last_row: int = field(default=0, repr=False)
    # Column extent of the hits in the most recent row that touched this
    # region.  Matching new hits against this *recent* extent -- not the
    # whole bounding box -- keeps a long diagonal streak from swallowing
    # unrelated regions that start in columns it visited long ago.
    cur_lo: int = field(default=0, repr=False)
    cur_hi: int = field(default=0, repr=False)

    def as_alignment(self) -> LocalAlignment:
        """Convert to a queue entry, ending at the summit cell.

        Above-threshold cells trail past an alignment's true end while the
        DP score decays back to zero; the alignment itself ends where the
        score peaked, which is also where the paper's heuristic records the
        final coordinates.  The start keeps the bounding-box corner (the
        first above-threshold cell), which -- like the paper's open-on-climb
        rule -- is a few cells downstream of the true start.
        """
        return LocalAlignment(
            score=self.score,
            s_start=self.s_start,
            s_end=max(self.peak_i, self.s_start + 1),
            t_start=self.t_start,
            t_end=max(self.peak_j, self.t_start + 1),
        )

    @property
    def region(self) -> tuple[int, int, int, int]:
        return (self.s_start, self.s_end, self.t_start, self.t_end)


class StreamingRegionFinder:
    """Cluster above-threshold cells from successive DP rows into regions."""

    def __init__(self, config: RegionConfig) -> None:
        self.config = config
        self._active: list[Region] = []
        self._finished: list[Region] = []
        self._last_fed = 0

    def feed(self, i: int, row: np.ndarray) -> None:
        """Consume DP row ``i`` (including the boundary column at index 0)."""
        if i <= self._last_fed:
            raise ValueError(f"rows must be fed in increasing order (got {i})")
        self._last_fed = i
        cfg = self.config
        self._retire(i)
        js = np.nonzero(row[1:] >= cfg.threshold)[0] + 1
        if js.size == 0:
            return
        if js.size > 1:
            breaks = np.nonzero(np.diff(js) > cfg.col_tolerance)[0]
            segments = np.split(js, breaks + 1)
        else:
            segments = [js]
        for seg in segments:
            k = int(np.argmax(row[seg]))
            self._add_segment(
                i, int(seg[0]), int(seg[-1]), len(seg), int(row[seg[k]]), int(seg[k])
            )

    def feed_rows(self, i0: int, rows: np.ndarray) -> None:
        """Consume DP rows ``i0 .. i0 + len(rows) - 1`` (a whole band) at once.

        One numpy pass finds every cell at or above the threshold; the
        hits are cut into per-row segments (runs whose column gaps stay
        within ``col_tolerance``) with their summits, all vectorised, and
        only the segments go through the Python clustering loop.  Rows
        without hits only age the active regions, and :meth:`_retire`
        closes regions in ``last_row`` order, so the regions -- and their
        order in :meth:`finish` -- are exactly those of a row-by-row feed.
        """
        if len(rows) == 0:
            return
        if i0 <= self._last_fed:
            raise ValueError(f"rows must be fed in increasing order (got {i0})")
        width = rows.shape[1] - 1
        # Flat indices: a 2-D np.nonzero costs ~10x a flat one.
        flat = np.flatnonzero(rows[:, 1:] >= self.config.threshold)
        if flat.size:
            r_idx, c_idx = np.divmod(flat, width)
            js = c_idx + 1
            vals = rows[r_idx, js]
            cut = np.flatnonzero(
                (np.diff(r_idx) != 0) | (np.diff(js) > self.config.col_tolerance)
            ) + 1
            starts = np.concatenate(([0], cut))
            ends = np.concatenate((cut, [js.size]))
            peaks = np.maximum.reduceat(vals, starts)
            # First summit of each segment (np.argmax's tie rule).
            at_peak = vals == np.repeat(peaks, ends - starts)
            firsts = np.minimum.reduceat(
                np.where(at_peak, np.arange(js.size, dtype=np.int64), js.size), starts
            )
            current = -1
            for row, lo, hi, n, score, peak_j in zip(
                (r_idx[starts] + i0).tolist(),
                js[starts].tolist(),
                js[ends - 1].tolist(),
                (ends - starts).tolist(),
                peaks.tolist(),
                js[firsts].tolist(),
            ):
                if row != current:
                    self._retire(row)
                    current = row
                self._add_segment(row, lo, hi, n, score, peak_j)
        last = i0 + len(rows) - 1
        self._retire(last)
        self._last_fed = last

    def _add_segment(
        self, i: int, j_lo: int, j_hi: int, n_hits: int, seg_score: int, seg_peak_j: int
    ) -> None:
        """Attribute one row segment of hits to an active region (or open one)."""
        tol = self.config.col_tolerance
        matches = [
            r
            for r in self._active
            # Allow for the ~1 column/row rightward drift of a diagonal
            # streak across any skipped rows.
            if j_lo <= r.cur_hi + tol + (i - r.last_row) and j_hi >= r.cur_lo - tol
        ]
        if not matches:
            self._active.append(
                Region(
                    s_start=i - 1,
                    s_end=i,
                    t_start=j_lo - 1,
                    t_end=j_hi,
                    score=seg_score,
                    peak_i=i,
                    peak_j=seg_peak_j,
                    n_hits=n_hits,
                    last_row=i,
                    cur_lo=j_lo,
                    cur_hi=j_hi,
                )
            )
            return
        target = matches[0]
        for extra in matches[1:]:
            self._absorb(target, extra)
            self._active.remove(extra)
        target.s_end = i
        target.t_start = min(target.t_start, j_lo - 1)
        target.t_end = max(target.t_end, j_hi)
        target.n_hits += n_hits
        if target.last_row == i:
            target.cur_lo = min(target.cur_lo, j_lo)
            target.cur_hi = max(target.cur_hi, j_hi)
        else:
            target.cur_lo, target.cur_hi = j_lo, j_hi
        target.last_row = i
        if seg_score > target.score:
            target.score = seg_score
            target.peak_i = i
            target.peak_j = seg_peak_j

    @staticmethod
    def _absorb(target: Region, extra: Region) -> None:
        target.s_start = min(target.s_start, extra.s_start)
        target.s_end = max(target.s_end, extra.s_end)
        target.t_start = min(target.t_start, extra.t_start)
        target.t_end = max(target.t_end, extra.t_end)
        target.n_hits += extra.n_hits
        if extra.last_row >= target.last_row:
            target.cur_lo = min(target.cur_lo, extra.cur_lo)
            target.cur_hi = max(target.cur_hi, extra.cur_hi)
        if extra.score > target.score:
            target.score = extra.score
            target.peak_i = extra.peak_i
            target.peak_j = extra.peak_j

    def _retire(self, current_row: int) -> None:
        """Close regions idle for more than ``row_tolerance`` rows.

        Closed regions are appended in ``last_row`` order (ties keep their
        active-list order): the order a row-by-row feed retires them in, so
        skipping hit-free rows cannot reorder ties in :meth:`finish`.
        """
        tol = self.config.row_tolerance
        retired = [r for r in self._active if current_row - r.last_row > tol]
        if not retired:
            return
        self._active = [r for r in self._active if current_row - r.last_row <= tol]
        retired.sort(key=lambda r: r.last_row)
        self._finished.extend(retired)

    def finish(self) -> list[Region]:
        """Close all active regions and return every region found, best first."""
        self._finished.extend(self._active)
        self._active = []
        kept = [r for r in self._finished if r.n_hits >= self.config.min_hits]
        kept.sort(key=lambda r: (-r.score, r.region))
        return kept


def find_regions(
    s: np.ndarray | str,
    t: np.ndarray | str,
    config: RegionConfig,
    scoring: Scoring = DEFAULT_SCORING,
) -> list[Region]:
    """Run the two-row scan over ``s`` x ``t`` and cluster its hits."""
    from .linear import iter_sw_rows

    finder = StreamingRegionFinder(config)
    for i, row in iter_sw_rows(encode(s), encode(t), scoring):
        finder.feed(i, row)
    return finder.finish()
