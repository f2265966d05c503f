"""Black-box random search over sampling parameters with a pluggable quality
scorer, plus a binned variance decomposition for parameter importance."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Protocol

import numpy as np

from .codec import RvqCodec, TokenSequence, decode
from .errors import ValidationError, atomic_write
from .sampler import DEFAULT_MAX_LEN, SamplingParams, generate

PARAM_NAMES = ("k", "p", "temperature")

# Score assigned to an empty generation by the built-in proxy scorer.
EMPTY_SEQUENCE_PENALTY = 100.0
TRUNCATION_PENALTY = 10.0

DEFAULT_IMPORTANCE_BINS = 10
DEFAULT_DEV_COUNT = 4  # generations scored per trial


@dataclass(frozen=True)
class SearchSpace:
    """Closed parameter ranges; k is integer-valued, p and temperature real."""

    k_range: tuple = (5, 300)
    p_range: tuple = (0.1, 1.0)
    temp_range: tuple = (0.1, 1.0)

    def __post_init__(self):
        k_min, k_max = self.k_range
        if not 1 <= k_min <= k_max <= 2 ** 63 - 1:  # k is drawn as an int64
            raise ValidationError(f"bad k_range {self.k_range}")
        p_lo, p_hi = self.p_range
        if not 0.0 < p_lo < p_hi <= 1.0:
            raise ValidationError(f"bad p_range {self.p_range}")
        t_lo, t_hi = self.temp_range
        if not 0.0 < t_lo < t_hi < math.inf:
            raise ValidationError(f"bad temp_range {self.temp_range}")


@dataclass(frozen=True)
class Trial:
    index: int
    params: SamplingParams
    score: float
    seed: int
    flagged: bool = False


@dataclass
class TuningHistory:
    """Ordered trials; `best` is the index of the maximum score, earliest on ties."""

    trials: List[Trial]
    best: int = field(init=False)

    def __post_init__(self):
        if not self.trials:
            raise ValidationError("history must contain at least one trial")
        scores = [t.score for t in self.trials]
        self.best = int(np.argmax(scores))

    @property
    def best_trial(self) -> Trial:
        return self.trials[self.best]


@dataclass(frozen=True)
class ScoreContext:
    """Everything a scorer may want about the trial that produced a sequence."""

    params: SamplingParams
    natural: bool


class QualityScorer(Protocol):
    """Deterministic quality judge; higher scores are better."""

    def score(self, generated, context) -> float: ...


class CentroidScorer:
    """Desk-scale proxy objective: negative mean squared distance between the
    decoded generated frames and the training-data feature centroid, with a
    penalty for truncated or empty generations.

    The centroid is the usage-weighted mean of the first-stage codebook,
    which equals the mean of the training frames.
    """

    def __init__(self, codec: RvqCodec):
        self.codec = codec
        stage = codec.stages[0]
        weights = stage.usage_counts.astype(np.float64)
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(weights))
            total = float(len(weights))
        self.centroid = (weights @ stage.vectors) / total

    def score(self, generated: TokenSequence, context) -> float:
        if generated.num_frames == 0:
            distortion = EMPTY_SEQUENCE_PENALTY
        else:
            decoded = decode(self.codec, generated)
            diff = decoded.data - self.centroid
            distortion = float(np.mean(np.sum(diff * diff, axis=1)))
        penalty = 0.0
        if isinstance(context, ScoreContext) and not context.natural:
            penalty = TRUNCATION_PENALTY
        return -distortion - penalty


def sample_params(space: SearchSpace, rng: np.random.Generator) -> SamplingParams:
    """Uniform draw from the space: integer k, then real p, then temperature."""
    k = int(rng.integers(space.k_range[0], space.k_range[1] + 1))
    p = float(rng.uniform(*space.p_range))
    temperature = float(rng.uniform(*space.temp_range))
    return SamplingParams(k=k, p=p, temperature=temperature)


def tune(space: SearchSpace, scorer: QualityScorer, model,
         dev_count: int = DEFAULT_DEV_COUNT, *, n_trials: int, seed: int,
         max_len: int = DEFAULT_MAX_LEN) -> TuningHistory:
    """Uniform random search maximizing the mean scorer value over `dev_count`
    generations per trial.

    Per trial the master generator draws (k, p, temperature, trial seed) in
    that order; generation j uses default_rng([trial_seed, j]).
    Histories are bit-reproducible from (space, seed, n_trials). A scorer
    returning a non-finite value marks the trial flagged with score -inf.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    if dev_count < 1:
        raise ValidationError(f"dev_count must be >= 1, got {dev_count}")
    rng = np.random.default_rng(seed)
    trials = []
    for index in range(n_trials):
        params = sample_params(space, rng)
        trial_seed = int(rng.integers(0, 2 ** 63))
        scores = []
        for j in range(dev_count):
            result = generate(model, params, max_len, np.random.default_rng([trial_seed, j]))
            ctx = ScoreContext(params=params, natural=result.natural)
            scores.append(float(scorer.score(result.sequence, ctx)))
        mean_score = float(np.mean(scores))
        flagged = not math.isfinite(mean_score)
        if flagged:
            mean_score = -math.inf
        trials.append(Trial(index=index, params=params, score=mean_score,
                            seed=trial_seed, flagged=flagged))
    return TuningHistory(trials=trials)


def param_importance(history: TuningHistory, bins: int = DEFAULT_IMPORTANCE_BINS) -> dict:
    """Normalized variance of bin-mean scores per parameter.

    Trials are binned by each parameter's value into equal-width bins over
    its observed range; the variance of the per-bin mean scores measures
    that parameter's influence. The three variances are normalized to sum
    to 1, or reported as the all-zero triple when every variance is zero.
    Flagged (non-finite) trials are excluded.
    """
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    trials = [t for t in history.trials if not t.flagged]
    if len(trials) < 2 * bins:
        raise ValidationError(f"needs >= {2 * bins} finite trials, have {len(trials)}")
    scores = np.array([t.score for t in trials])
    variances = {}
    for name in PARAM_NAMES:
        values = np.array([getattr(t.params, name) for t in trials], dtype=np.float64)
        variances[name] = _binned_variance(values, scores, bins)
    total = sum(variances.values())
    if total <= 0:
        return {name: 0.0 for name in PARAM_NAMES}
    return {name: v / total for name, v in variances.items()}


def _binned_variance(values: np.ndarray, scores: np.ndarray, bins: int) -> float:
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    which = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    means = [scores[which == b].mean() for b in range(bins) if np.any(which == b)]
    if len(means) < 2:
        return 0.0
    return float(np.var(means))


def save_history_jsonl(history: TuningHistory, path) -> None:
    """One JSON object per trial: index, k, p, temperature, score, seed, flags."""
    with atomic_write(path) as fh:
        for t in history.trials:
            row = {"index": t.index, "k": t.params.k, "p": t.params.p,
                   "temperature": t.params.temperature, "score": t.score,
                   "seed": t.seed, "flagged": t.flagged}
            fh.write(json.dumps(row) + "\n")
