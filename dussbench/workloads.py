"""The benchmark's workloads: sizes of each phase of the two tracks.

Every workload runs both tracks in every round, so every end-to-end metric
is reported on every workload; they differ in where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

# The LM and tuning settings every workload shares.
LM_ORDER = 3
LM_ALPHA = 0.1
TUNE_DEV_COUNT = 4
# `duss evaluate` runs this many times in a row per round: once takes only
# 0.05-0.15 s, short enough that the host's second-to-second drift made its
# rate spread by up to 0.19 of its median over ten seeds.
EVAL_REPEATS = 4

# The sampling triples of the `acoustic-256` and `acoustic-1024` presets.
TRIPLE_256 = (181, 0.779, 0.351)
TRIPLE_1024 = (11, 0.186, 0.507)


@dataclass(frozen=True)
class Workload:
    name: str
    # Vocoder track: `duss train-codec` on the training manifest, then
    # `duss encode` / `duss decode` / `duss evaluate` on the held-out set.
    train_utts: int
    train_seconds: float
    heldout_utts: int
    heldout_seconds: float
    codebook_size: int
    num_quantizers: int
    kmeans_iters: int
    # Acoustic track: a single-stage set-up codec of size lm_vocab encodes a
    # syllable pool; LM utterances are random runs of pool syllables.
    lm_vocab: int
    pool_syllables: int
    lm_tokens: int
    lm_utt_syllables: Tuple[int, int]   # range of syllables per LM utterance
    tune_trials: int
    tune_max_len: int
    triple: Tuple[int, float, float]
    gen_streams: int
    gen_max_len: int
    render_count: int
    render_max_len: int
    render_gl_iterations: int


WORKLOADS: Dict[str, Workload] = {
    # Codec training (k-means++ over 1024 centres), Griffin-Lim on medium
    # utterances, DTW and YIN in `evaluate`; the LM phases are minimal.
    "vocoder": Workload(
        name="vocoder", train_utts=20, train_seconds=4.0,
        heldout_utts=3, heldout_seconds=4.0,
        codebook_size=1024, num_quantizers=2, kmeans_iters=4,
        lm_vocab=64, pool_syllables=64, lm_tokens=3000, lm_utt_syllables=(20, 41),
        tune_trials=24, tune_max_len=100, triple=TRIPLE_256,
        gen_streams=40, gen_max_len=300,
        render_count=1, render_max_len=100, render_gl_iterations=60),
    # `duss tune` over the default search space at short-to-medium contexts;
    # the vocoder phases run on short utterances.
    "acoustic-tune": Workload(
        name="acoustic-tune", train_utts=96, train_seconds=1.0,
        heldout_utts=4, heldout_seconds=2.0,
        codebook_size=256, num_quantizers=1, kmeans_iters=3,
        lm_vocab=256, pool_syllables=192, lm_tokens=6000, lm_utt_syllables=(60, 101),
        tune_trials=16, tune_max_len=500, triple=TRIPLE_256,
        gen_streams=12, gen_max_len=500,
        render_count=2, render_max_len=100, render_gl_iterations=60),
    # Long generations at the acoustic-1024 triple from an LM over tens of
    # thousands of tokens, rendered through `duss generate`.
    "acoustic-longform": Workload(
        name="acoustic-longform", train_utts=96, train_seconds=1.0,
        heldout_utts=4, heldout_seconds=2.0,
        codebook_size=128, num_quantizers=1, kmeans_iters=3,
        lm_vocab=1024, pool_syllables=384, lm_tokens=24000, lm_utt_syllables=(30, 61),
        tune_trials=20, tune_max_len=200, triple=TRIPLE_1024,
        gen_streams=2, gen_max_len=2000,
        render_count=1, render_max_len=400, render_gl_iterations=60),
}


def smoke(w: Workload) -> Workload:
    """A few-second version of a workload that still reaches every phase
    and every check; the benchmark's own test runs it."""
    return replace(
        w, train_utts=4, train_seconds=1.0, heldout_utts=2, heldout_seconds=0.6,
        codebook_size=16, num_quantizers=min(w.num_quantizers, 2), kmeans_iters=3,
        lm_vocab=16, pool_syllables=12, lm_tokens=300, lm_utt_syllables=(20, 41),
        tune_trials=2, tune_max_len=60, gen_streams=2, gen_max_len=60,
        render_count=1, render_max_len=30, render_gl_iterations=5)
