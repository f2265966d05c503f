"""Objective evaluation: bitrate (nominal and corpus-measured), mel-cepstral
distortion with DTW alignment, and log-F0 RMSE over voiced frames."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .codec import TokenSequence
from .dsp import F0Track, FeatureMatrix
from .errors import DataError, ValidationError

# 10/ln(10) * sqrt(2), the usual mel-cepstral distortion scale factor.
MCD_CONST = (10.0 / math.log(10.0)) * math.sqrt(2.0)

# Mel-cepstral coefficients kept for MCD, the energy term c0 included: one
# figure for `duss evaluate` and the vocoder track alike.
MCD_COEFFS = 13

# Alignment cost for a voiced/unvoiced mismatch when warping F0 tracks.
VOICING_MISMATCH_COST = 1.0

# Most cells in a DTW cost matrix (512 MiB of float64, ~4.1 min a side at hop
# 480): a larger pair is a DataError raised before any matrix is built.
MAX_DTW_CELLS = 2**26


def nominal_bitrate(vocab_size: int, num_quantizers: int, frame_rate) -> float:
    """Q * log2(V) * frame_rate in bits per second."""
    if vocab_size < 2:
        raise ValidationError(f"vocab_size must be >= 2, got {vocab_size}")
    if num_quantizers < 1:
        raise ValidationError(f"num_quantizers must be >= 1, got {num_quantizers}")
    rate = float(frame_rate)
    if rate <= 0:
        raise ValidationError(f"frame_rate must be > 0, got {frame_rate}")
    return num_quantizers * math.log2(vocab_size) * rate


def measured_bitrate(sequences: Sequence[TokenSequence], durations: Sequence[float]) -> float:
    """Corpus-measured bitrate from the codes actually used.

    Total bits are sum over utterances of T * Q * log2(V_used) where V_used
    counts the distinct token values over the whole corpus (floored at 2 so
    a one-code corpus is not free); the total is divided by the summed
    durations. Stop tokens are never stored, so they are not counted.
    """
    if len(sequences) == 0:
        raise ValidationError("measured_bitrate requires a non-empty corpus")
    if len(sequences) != len(durations):
        raise ValidationError(
            f"got {len(sequences)} sequences but {len(durations)} durations")
    durations = [float(d) for d in durations]
    if any(d <= 0 for d in durations):
        raise ValidationError("durations must be > 0")

    values = set()
    for seq in sequences:
        values.update(np.unique(seq.tokens).tolist())
    bits_per_code = math.log2(max(len(values), 2))
    total_bits = sum(seq.num_frames * seq.num_stages * bits_per_code for seq in sequences)
    return total_bits / sum(durations)


# ---------------------------------------------------------------------------
# DTW alignment


def _as_frames(x) -> np.ndarray:
    data = x.data if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise ValidationError(f"expected a 2-D frame matrix, got shape {data.shape}")
    return data


def _check_dtw_size(tx: int, ty: int) -> None:
    if tx * ty > MAX_DTW_CELLS:
        raise DataError(f"DTW of {tx} x {ty} frames exceeds the {MAX_DTW_CELLS}-cell limit")


def _dtw_from_cost(local: np.ndarray) -> Tuple[np.ndarray, float]:
    """Minimal-cost monotone alignment over a cost matrix with steps (1,0),
    (0,1), (1,1), as ((L, 2) index pairs from (0, 0) to the last cell, cost).
    When step costs tie, the diagonal is preferred, then advancing x, then y.

    The interior is filled one anti-diagonal d = i + j at a time. In the
    C-ordered cumulative matrix the cells of one anti-diagonal lie ty - 1
    apart, so each cell's diagonal, up and left predecessors are strided
    slices at offsets -ty - 1, -ty and -1 of it; every cell is still one
    exact min of three plus one add."""
    tx, ty = local.shape
    if tx == 0 or ty == 0:
        raise ValidationError("DTW requires non-empty inputs")
    cum = np.empty(local.shape)
    cum[0, 0] = local[0, 0]
    cum[0, 1:] = local[0, 1:].cumsum() + local[0, 0]
    cum[1:, 0] = local[1:, 0].cumsum() + local[0, 0]
    flat, cost, step = cum.reshape(-1), np.ascontiguousarray(local).reshape(-1), ty - 1
    for d in range(2, tx + ty - 1) if min(tx, ty) > 1 else ():
        lo, hi = max(1, d - step), min(tx - 1, d - 1)
        start, stop = d + lo * step, d + hi * step + 1
        here = flat[start:stop:step]
        np.minimum(flat[start - ty - 1:stop - ty - 1:step], flat[start - ty:stop - ty:step],
                   out=here)
        np.minimum(here, flat[start - 1:stop - 1:step], out=here)
        np.add(here, cost[start:stop:step], out=here)

    pairs = [(tx - 1, ty - 1)]
    i, j = tx - 1, ty - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = cum[i - 1, j - 1], cum[i - 1, j], cum[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return np.array(pairs, dtype=np.int64), float(cum[-1, -1])


# ---------------------------------------------------------------------------
# Mel-cepstral distortion and F0 error


def mcd(ref, syn) -> float:
    """Mean mel-cepstral distortion in dB along the DTW path.

    The energy coefficient (index 0) is excluded both from alignment and
    from the reported distortion; per-pair distortion is
    MCD_CONST * sqrt(sum of squared coefficient differences).
    """
    ra, sa = _as_frames(ref), _as_frames(syn)
    if ra.shape[1] != sa.shape[1]:
        raise ValidationError(f"dimension mismatch: {ra.shape[1]} vs {sa.shape[1]}")
    if ra.shape[1] < 2:
        raise ValidationError("mcd needs at least 2 cepstral coefficients")
    _check_dtw_size(len(ra), len(sa))
    dist = MCD_CONST * cdist(ra[:, 1:], sa[:, 1:])
    pairs, _ = _dtw_from_cost(dist)
    return float(np.mean(dist[pairs[:, 0], pairs[:, 1]]))


@dataclass(frozen=True)
class LogF0Result:
    """RMSE of natural-log F0 over aligned voiced-voiced frame pairs."""

    rmse: float
    no_overlap: bool
    num_pairs: int


def log_f0_rmse(ref: F0Track, syn: F0Track) -> LogF0Result:
    """Align two F0 tracks and report log-F0 RMSE over voiced-voiced pairs.

    Alignment cost is |ln f_ref - ln f_syn| when both frames are voiced,
    zero when both are unvoiced, and VOICING_MISMATCH_COST otherwise.
    With no aligned voiced-voiced pair, the RMSE is 0 and no_overlap is set.
    """
    if ref.frame_rate != syn.frame_rate:
        raise ValidationError(
            f"frame rate mismatch: {ref.frame_rate} vs {syn.frame_rate}")
    rv, sv = ref.voiced_mask, syn.voiced_mask
    _check_dtw_size(len(rv), len(sv))
    # An unvoiced frame reads ln 1 = 0, so two unvoiced frames cost exactly 0.
    log_r = np.log(np.where(rv, ref.values, 1.0))
    log_s = np.log(np.where(sv, syn.values, 1.0))
    cost = np.where(rv[:, None] == sv[None, :], np.abs(log_r[:, None] - log_s[None, :]),
                    VOICING_MISMATCH_COST)
    pairs, _ = _dtw_from_cost(cost)
    xi, yi = pairs[:, 0], pairs[:, 1]
    keep = rv[xi] & sv[yi]
    if not np.any(keep):
        return LogF0Result(rmse=0.0, no_overlap=True, num_pairs=0)
    diffs = log_r[xi[keep]] - log_s[yi[keep]]
    return LogF0Result(rmse=float(np.sqrt(np.mean(diffs * diffs))),
                       no_overlap=False, num_pairs=int(keep.sum()))
