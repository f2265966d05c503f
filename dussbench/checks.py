"""Output checks that do not trust the program.

Each check compares a round's outputs against a computation made here
(brute-force nearest code, a plain dynamic-programming DTW, an n-gram table
counted from the LM corpus, the bitrate formula, an STFT) or against a
property the method must have. None compares against stored output.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.io import wavfile

MCD_CONST = 10.0 / math.log(10.0) * math.sqrt(2.0)
# Slack for comparing quantities this module computes in another order of
# floating-point operations than the program does.
TOL = 1e-9
# `duss tune`'s default search space: (k, p, temperature) ranges.
TUNE_SPACE = ((5, 300), (0.1, 1.0), (0.1, 1.0))

_DUST = struct.Struct("<4sIIIQQQ")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_dust(path: str) -> Tuple[np.ndarray, int, float]:
    """Tokens (Q x T), vocabulary size and frame rate of a DUST file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, _version, v, q, t, num, den = _DUST.unpack_from(buf)
    require(magic == b"DUST", f"{path}: bad magic {magic!r}")
    tokens = np.frombuffer(buf, dtype="<u4", count=q * t, offset=_DUST.size)
    return tokens.reshape(q, t).astype(np.int64), v, num / den


def read_wav(path: str) -> np.ndarray:
    _rate, data = wavfile.read(path)
    return np.asarray(data, dtype=np.float64)


# ---------------------------------------------------------------------------
# Codec


def brute_force_codes(stages: Sequence[np.ndarray], frame: np.ndarray,
                      tokens: Sequence[int]) -> None:
    """Each stage's token is the nearest code to the running residual by an
    explicit squared distance, lowest index on ties. A token whose distance
    is within TOL of the minimum is a near-tie the two formulas may break
    differently, and passes."""
    residual = frame.copy()
    for s, vectors in enumerate(stages):
        d = np.sum((vectors - residual) ** 2, axis=1)
        best = int(np.argmin(d))
        tok = int(tokens[s])
        require(tok == best or d[tok] - d[best] <= TOL * max(1.0, d[best]),
                f"stage {s}: encode wrote code {tok}, nearest is {best}")
        residual = residual - vectors[tok]


def codec_training(usage: Sequence[np.ndarray], stage_mse: Sequence[float],
                   train_frames: int) -> None:
    for s, counts in enumerate(usage):
        require(int(np.sum(counts)) == train_frames,
                f"stage {s} usage counts sum to {int(np.sum(counts))}, "
                f"not the {train_frames} training frames")
    require(all(b <= a for a, b in zip(stage_mse, stage_mse[1:])),
            f"per-stage train MSE increases: {list(stage_mse)}")


def usage_stats(usage: Sequence[np.ndarray]) -> Tuple[float, float]:
    """Mean over stages of the share of codes used and of the perplexity
    exp(H) of the usage distribution."""
    shares, perplexities = [], []
    for counts in usage:
        counts = np.asarray(counts, dtype=np.float64)
        shares.append(float(np.mean(counts > 0)))
        p = counts[counts > 0] / counts.sum()
        perplexities.append(float(np.exp(-np.sum(p * np.log(p)))))
    return float(np.mean(shares)), float(np.mean(perplexities))


# ---------------------------------------------------------------------------
# Metrics


def dtw_mcd(ref: np.ndarray, syn: np.ndarray) -> float:
    """Mel-cepstral distortion along a plain O(Tx*Ty) DTW.

    Coefficient 0 is left out; steps (1,0), (0,1), (1,1); tracing back,
    ties prefer the diagonal, then advancing x, then advancing y.
    """
    a, b = ref[:, 1:], syn[:, 1:]
    d = MCD_CONST * np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
    d = d.tolist()
    tx, ty = len(d), len(d[0])
    cum = [[0.0] * ty for _ in range(tx)]
    for i in range(tx):
        for j in range(ty):
            if i == 0 and j == 0:
                best = 0.0
            elif i == 0:
                best = cum[0][j - 1]
            elif j == 0:
                best = cum[i - 1][0]
            else:
                best = min(cum[i - 1][j - 1], cum[i - 1][j], cum[i][j - 1])
            cum[i][j] = d[i][j] + best
    i, j = tx - 1, ty - 1
    total, steps = d[i][j], 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = cum[i - 1][j - 1], cum[i - 1][j], cum[i][j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        total += d[i][j]
        steps += 1
    return total / steps


# ---------------------------------------------------------------------------
# Acoustic track


def ngram_table(streams: Sequence[np.ndarray], order: int,
                stop: int) -> Dict[tuple, Dict[int, int]]:
    """Counts of the next token after every context of length < order, with
    the stop id appended to each utterance."""
    table: Dict[tuple, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for stream in streams:
        utt = [int(t) for t in stream] + [stop]
        for i, tok in enumerate(utt):
            for length in range(min(order - 1, i) + 1):
                table[tuple(utt[i - length:i])][tok] += 1
    return table


def candidates(table, order: int, alpha: float, vocab: int, context: List[int],
               triple: Tuple[int, float, float]) -> List[int]:
    """Rank-ordered top-k ∩ nucleus set of the tempered, smoothed back-off
    distribution after `context`, kept with TOL slack at the nucleus edge."""
    k, p, temperature = triple
    counts = np.zeros(vocab)
    for length in range(min(order - 1, len(context)), -1, -1):
        key = tuple(context[len(context) - length:])
        if key in table:
            for tok, c in table[key].items():
                counts[tok] = c
            break
    probs = (counts + alpha) / np.sum(counts + alpha)
    logq = np.log(probs) / temperature
    q = np.exp(logq - logq.max())
    q /= q.sum()
    ranked = np.argsort(-q, kind="stable")
    keep, mass = [], 0.0
    for tok in ranked[:k]:
        if keep and mass >= p + TOL:
            break
        keep.append(int(tok))
        mass += q[tok]
    return keep


def drawn_tokens(streams, natural, table, order, alpha, vocab, triple) -> None:
    """At every step, the drawn token (the stop id after a natural end) lies
    in the candidate set."""
    stop = vocab - 1
    memo = {}
    for s, tokens in enumerate(streams):
        stream = [int(t) for t in tokens] + ([stop] if natural[s] else [])
        for t, drawn in enumerate(stream):
            key = tuple(stream[max(0, t - order + 1):t])
            if key not in memo:
                memo[key] = set(candidates(table, order, alpha, vocab, list(key), triple))
            require(drawn in memo[key], f"stream {s} step {t}: token {drawn} is "
                                        f"outside the top-k/nucleus set")


def stopped_naturally(lengths: Sequence[int], natural: Sequence[bool],
                      max_len: int) -> None:
    for n, nat in zip(lengths, natural):
        require(nat or n == max_len, f"stream of {n} < max_len {max_len} tokens "
                                     f"did not stop naturally")
        require(n <= max_len, f"stream of {n} tokens exceeds max_len {max_len}")


def tune_history(path: str, stdout: str, n_trials: int) -> None:
    """Every trial lies in the search space and the printed best is the
    earliest argmax of the scores."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    require(len(rows) == n_trials, f"history has {len(rows)} trials, not {n_trials}")
    (k_lo, k_hi), (p_lo, p_hi), (t_lo, t_hi) = TUNE_SPACE
    for i, row in enumerate(rows):
        require(row["index"] == i, f"trial {i} has index {row['index']}")
        require(isinstance(row["k"], int) and k_lo <= row["k"] <= k_hi
                and p_lo <= row["p"] <= p_hi
                and t_lo <= row["temperature"] <= t_hi,
                f"trial {i} lies outside the search space: {row}")
    scores = [row["score"] for row in rows]
    best = scores.index(max(scores))
    m = re.search(r"^best: V=\d+ k=(\d+) p=(\S+) temperature=(\S+) score=(\S+)$",
                  stdout, re.M)
    require(m is not None, "tune printed no best line")
    b = rows[best]
    require(int(m.group(1)) == b["k"] and m.group(2) == f"{b['p']:.3f}"
            and m.group(3) == f"{b['temperature']:.3f}"
            and m.group(4) == f"{b['score']:.6g}",
            f"tune printed {m.group(0)!r}, earliest argmax is trial {best}: {b}")


def generate_outputs(out_dir: str, stdout: str, max_len: int, hop: int) -> float:
    """Checks `duss generate`'s streams, WAVs and printed bitrate; returns
    the audio seconds written."""
    lines = re.findall(r"^gen_(\d+): frames=(\d+) natural=(True|False)$", stdout, re.M)
    require(lines, "generate printed no stream lines")
    seqs, lengths, natural, audio_s = [], [], [], 0.0
    for idx, frames, nat in lines:
        stem = os.path.join(out_dir, f"gen_{idx}")
        tokens, v, rate = read_dust(stem + ".dust")
        require(tokens.shape[1] == int(frames), f"gen_{idx}: {tokens.shape[1]} "
                                                f"frames on disk, {frames} printed")
        wav = read_wav(stem + ".wav")
        require(np.all(np.isfinite(wav)), f"gen_{idx}.wav is not finite")
        require(len(wav) == int(frames) * hop,
                f"gen_{idx}.wav has {len(wav)} samples, not {frames} x {hop}")
        seqs.append((tokens, rate))
        lengths.append(int(frames))
        natural.append(nat == "True")
        audio_s += len(wav) / (rate * hop)
    stopped_naturally(lengths, natural, max_len)

    m = re.search(r"^measured_bitrate_bps: (\S+)$", stdout, re.M)
    require(m is not None, "generate printed no bitrate")
    nonempty = [(t, r) for t, r in seqs if t.shape[1]]
    if nonempty:
        used = max(len(set(np.concatenate([t.ravel() for t, _ in nonempty]).tolist())), 2)
        bits = sum(t.shape[1] * t.shape[0] * math.log2(used) for t, _ in nonempty)
        expect = bits / sum(t.shape[1] / r for t, r in nonempty)
    else:
        expect = 0.0
    require(abs(float(m.group(1)) - expect) <= 0.005 + TOL,
            f"generate printed bitrate {m.group(1)}, formula gives {expect:.6f}")
    return audio_s


# ---------------------------------------------------------------------------
# Griffin-Lim


def spectral_convergence(mel: np.ndarray, wave: np.ndarray, fb: np.ndarray,
                         frame_len: int, hop: int) -> float:
    """||  |STFT(wave)| - target || / || target || with the target magnitude
    sqrt(max(exp(mel) pinv(fb)^T, 0)) and a centred, reflect-padded,
    periodic-Hann STFT of T = len(mel) frames."""
    target = np.sqrt(np.clip(np.exp(mel) @ np.linalg.pinv(fb).T, 0.0, None))
    t = len(mel)
    left = frame_len // 2
    right = max(0, (t - 1) * hop + frame_len - left - len(wave))
    padded = np.pad(wave, (left, right), mode="reflect")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len)
    frames = np.stack([padded[i * hop:i * hop + frame_len] for i in range(t)])
    mag = np.abs(np.fft.rfft(frames * window, axis=1))
    return float(np.linalg.norm(mag - target) / np.linalg.norm(target))
