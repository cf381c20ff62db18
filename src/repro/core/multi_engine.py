"""Multi-sequence DP workspace: one query row advanced across many targets.

:class:`repro.core.engine.KernelWorkspace` removes the per-row allocation
overhead of a single pairwise scan, but a *database search* (one query
against thousands of short targets) is still dominated by per-sequence
Python/numpy dispatch: a 500 bp target means every vector op touches only a
few hundred elements, so the interpreter -- not the ALU -- sets the pace.

:class:`MultiSequenceWorkspace` applies the inter-task parallelisation of
SWAPHI's Xeon Phi kernels (see PAPERS.md): pack ``k`` length-bucketed
targets into one padded code matrix and advance *all k* DP rows per numpy
call, so the batch axis plays the role of the SIMD lane axis.  Three layout
decisions carry the throughput:

* **Lanes are the contiguous axis.**  The DP state is ``(n + 1, k)`` --
  target position outer, lane inner -- so every vector op streams over
  contiguous same-position lanes, and the ramped horizontal-gap chain
  (``H[j] = max(C[j], H[j-1] + gap)``) is one ``maximum.accumulate`` down
  the position axis.  The host cost model hands this kernel only narrow
  tiles (wide ones go to :mod:`repro.core.striped`), where one accumulate
  per query row beats a per-column loop.
* **Narrow lanes when scores provably fit.**  With short targets the paper's
  unit scores are bounded far below ``2**15``, so the whole row state drops
  to int16 -- double the SIMD width and half the memory traffic of
  :data:`SCORE_DTYPE` -- whenever ``match * n`` and every intermediate
  (candidate + ramp, chain minimum) fit with margin; otherwise int32 (and
  the usual int64 widening for enormous widths).  Returned scores are
  always :data:`SCORE_DTYPE`.
* **Padding mask.**  Lanes shorter than the bucket width are padded with
  :data:`PAD_CODE`; the query profile maps padded positions to a score
  dominating any real score, so a diagonal move can never enter padding
  competitively.  Gap moves *can* flow rightwards into the padding, but
  every such path starts from a valid cell and only accumulates strictly
  negative penalties, so padded cells are strictly dominated by a valid
  cell already counted -- per-lane running maxima are exact with no
  per-lane slicing.

The Smith-Waterman zero-clamp is applied *after* the chain rather than
before it: with ``g = -gap > 0``,
``max_{i<=j}(max(C[i], 0) + g*i) = max(max_{i<=j}(C[i] + g*i), g*j)``
because ``g*i`` is increasing, so clamping the resolved row at 0 yields the
same values as clamping the candidates first -- one fewer full pass.

Valid-column values are bitwise identical to a per-sequence
:class:`KernelWorkspace` scan: column ``j``'s recurrence only reads columns
``<= j`` of the current row and ``j-1, j`` of the previous one, all valid
when ``j`` is.
"""

from __future__ import annotations

import numpy as np

from ..obs import count_cells
from .scoring import DEFAULT_SCORING, SCORE_DTYPE, Scoring

#: Code used for padded positions of the packed target matrix.  Outside every
#: real alphabet (DNA is 0..3, proteins 0..24), so profiles can mask on it.
PAD_CODE = np.uint8(255)

#: Substitution score of a query character against a padded position in the
#: int32 lane mode.  Large enough (in magnitude) to dominate any score
#: reachable in the narrow int32 regime, small enough that ``prev + PAD``
#: cannot wrap.
PAD_SCORE = SCORE_DTYPE(-(2**30))

#: The int16 counterpart.  Scores are bounded by ``match * n <= 2**13`` when
#: this mode is selected, so ``-(2**13)`` dominates and every intermediate
#: (down to ``PAD_SCORE_16 - g*(n+1) > -2**15``) stays in range.
PAD_SCORE_16 = np.int16(-(2**13))

def pack_codes(targets, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pack encoded target sequences into a padded ``(k, width)`` matrix.

    Returns ``(codes, lengths)`` where padded positions hold
    :data:`PAD_CODE`.  ``width`` defaults to the longest target.
    """
    lengths = np.array([int(len(t)) for t in targets], dtype=np.int64)
    if width is None:
        width = int(lengths.max()) if lengths.size else 0
    if lengths.size and int(lengths.max()) > width:
        raise ValueError(f"target longer than pack width {width}")
    codes = np.full((len(lengths), width), PAD_CODE, dtype=np.uint8)
    for lane, t in enumerate(targets):
        codes[lane, : lengths[lane]] = t
    return codes, lengths


class MultiSequenceWorkspace:
    """Reusable state for advancing ``k`` DP rows, one per packed target.

    ``codes`` is a ``(k, n)`` uint8 matrix of encoded targets padded with
    :data:`PAD_CODE` (as produced by :func:`pack_codes`); ``lengths`` gives
    each lane's real length.  Row blocks have shape ``(n + 1, k)`` -- the
    usual leading boundary column, lanes contiguous.  ``eager_codes`` lists
    the query codes profiled up front (default: the DNA alphabet); other
    codes are profiled lazily, so protein batches work unchanged.
    """

    __slots__ = (
        "scoring",
        "lengths",
        "lanes",
        "width",
        "dtype",
        "_codes_t",
        "_valid",
        "_gap",
        "_pad_score",
        "_wide",
        "_ramp",
        "_cand",
        "_tmp",
        "_acc",
        "_zero",
        "_row",
        "_rowmax",
        "_profile",
    )

    def __init__(
        self,
        codes: np.ndarray,
        lengths,
        scoring: Scoring = DEFAULT_SCORING,
        eager_codes=range(4),
    ) -> None:
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("codes must be a (k, n) matrix")
        k, n = codes.shape
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.shape != (k,):
            raise ValueError("lengths must have one entry per lane")
        if self.lengths.size and int(self.lengths.max()) > n:
            raise ValueError("lane length exceeds the packed width")
        self.scoring = scoring
        self.lanes = k
        self.width = n
        self._gap = int(scoring.gap)
        self._codes_t = np.ascontiguousarray(codes.T)
        self._valid = self._codes_t != PAD_CODE
        match, mismatch = int(scoring.match), int(scoring.mismatch)
        # Lane dtype: int16 when the score bound match*n and every
        # intermediate fit with margin (see module docstring), else the same
        # int32/int64 regime switch as KernelWorkspace.
        if (
            match * n <= 2**13
            and (match - self._gap) * (n + 2) <= 2**14
            and mismatch >= -(2**13)
        ):
            self.dtype = np.int16
            self._pad_score = PAD_SCORE_16
            self._wide = False
        else:
            self.dtype = SCORE_DTYPE
            self._pad_score = PAD_SCORE
            self._wide = (match - self._gap) * (n + 1) >= 2**30
        ramp_dtype = np.int64 if self._wide else self.dtype
        self._ramp = ((-self._gap) * np.arange(n + 1, dtype=ramp_dtype))[:, None]
        self._cand = np.empty((n + 1, k), dtype=self.dtype)
        self._tmp = np.empty((n, k), dtype=self.dtype)
        self._acc = np.empty((n + 1, k), dtype=np.int64) if self._wide else None
        # Zero-clamp operand: a scalar 0 falls off numpy's vectorized inner
        # loop for integer maximum, an array operand does not.
        self._zero = np.zeros((n + 1, k), dtype=np.int64 if self._wide else self.dtype)
        self._row = np.zeros((n + 1, k), dtype=self.dtype)
        self._rowmax = np.empty(k, dtype=self.dtype)
        self._profile: dict[int, np.ndarray] = {}
        for code in eager_codes:
            self.profile_block(int(code))

    # -- profile -----------------------------------------------------------

    def profile_block(self, s_char: int) -> np.ndarray:
        """The ``(n, k)`` substitution block of ``s_char`` vs every lane."""
        block = self._profile.get(s_char)
        if block is None:
            # Scorings may index 4x4 matrices with the codes, so padded cells
            # are remapped to code 0 for the lookup and then overwritten.
            safe = np.where(self._valid, self._codes_t, np.uint8(0))
            block = self.scoring.substitution_row(s_char, safe).astype(self.dtype)
            block[~self._valid] = self._pad_score
            self._profile[s_char] = np.ascontiguousarray(block)
            block = self._profile[s_char]
        return block

    # -- row kernel --------------------------------------------------------

    def initial_rows(self) -> np.ndarray:
        """A fresh all-zero ``(n+1, k)`` row block (local row 0)."""
        return np.zeros((self.width + 1, self.lanes), dtype=self.dtype)

    def sw_row(
        self, prev: np.ndarray, s_char: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance every lane by one Smith-Waterman row.

        ``prev`` is the ``(n+1, k)`` previous row block; ``out`` may alias
        ``prev`` for an in-place two-row scan.
        """
        if prev.shape != (self.width + 1, self.lanes):
            raise ValueError(
                f"prev block is {prev.shape}; workspace needs "
                f"{(self.width + 1, self.lanes)}"
            )
        cand = self._cand
        np.add(prev[:-1], self.profile_block(int(s_char)), out=cand[1:])
        np.add(prev[1:], self.dtype(self._gap), out=self._tmp)
        np.maximum(cand[1:], self._tmp, out=cand[1:])
        cand[0] = 0
        if out is None:
            out = np.empty((self.width + 1, self.lanes), dtype=self.dtype)
        if self._wide:
            acc = self._acc
            np.add(cand, self._ramp, out=acc)
            np.maximum.accumulate(acc, axis=0, out=acc)
            np.subtract(acc, self._ramp, out=acc)
            np.maximum(acc, self._zero, out=acc)
            out[:] = acc  # exact downcast: true row values fit the lane dtype
        else:
            np.add(cand, self._ramp, out=out)
            np.maximum.accumulate(out, axis=0, out=out)
            np.subtract(out, self._ramp, out=out)
            np.maximum(out, self._zero, out=out)
        return out

    # -- whole-query scans -------------------------------------------------

    def sw_best_scores(self, s_codes) -> np.ndarray:
        """Best local alignment score of the query against every lane.

        Streams the query once down the whole batch, keeping a per-lane
        running maximum; returns a ``(k,)`` :data:`SCORE_DTYPE` vector
        bitwise equal to ``k`` independent :class:`KernelWorkspace` scans.
        """
        best = np.zeros(self.lanes, dtype=self.dtype)
        row = self._row
        row[:] = 0
        rowmax = self._rowmax
        for ch in s_codes:
            row = self.sw_row(row, int(ch), out=row)
            np.max(row, axis=0, out=rowmax)
            np.maximum(best, rowmax, out=best)
        # Only real cells count: padded slots do no useful work.
        count_cells(int(len(s_codes)) * int(self.lengths.sum()))
        return best.astype(SCORE_DTYPE)
