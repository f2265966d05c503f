"""Combined top-k / top-p / temperature sampling and the autoregressive
generation loop terminated by a stop token."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codec import TokenSequence
from .dsp import DEFAULT_HOP, DEFAULT_SAMPLE_RATE
from .errors import ValidationError

# Default frame rate attached to generated sequences: the default analysis hop
# at the default sample rate.
DEFAULT_FRAME_RATE = Fraction(DEFAULT_SAMPLE_RATE, DEFAULT_HOP)

# Default cap on generated tokens per sequence.
DEFAULT_MAX_LEN = 500

# Slack for the nucleus cumulative-probability comparison, so inputs given in
# short decimals (0.5 + 0.3 vs 0.8) behave as they would in exact arithmetic.
NUCLEUS_TOL = 1e-12


@dataclass(frozen=True)
class SamplingParams:
    """The (k, p, temperature) triple the tuner searches over."""

    k: int = 50
    p: float = 0.95
    temperature: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if not (0.0 < self.p <= 1.0):
            raise ValidationError(f"p must be in (0, 1], got {self.p}")
        if not self.temperature > 0.0:
            raise ValidationError(f"temperature must be positive, got {self.temperature}")


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax with max-subtraction for stability.

    The max is subtracted before dividing, so the largest scaled logit is
    exactly 0 and the others are <= 0, whatever the temperature.
    """
    if temperature <= 0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValidationError("logits must be finite")
    # Flooring the differences at -1e300 * temperature keeps a tiny
    # temperature from overflowing the division; exp() of the floor is 0.
    scaled = np.maximum(logits - logits.max(), -1e300 * temperature) / temperature
    exp = np.exp(scaled)
    return exp / exp.sum()


def filter_candidates(probs: np.ndarray, k: int, p: float) -> np.ndarray:
    """Boolean mask of tokens surviving both top-k and nucleus filtering.

    Top-k keeps the k largest probabilities (ties to the lowest index);
    the nucleus is the smallest descending-sorted prefix whose cumulative
    probability reaches p, within NUCLEUS_TOL (the full support if the
    total never reaches p). Both sets are prefixes of the same ordering,
    so their intersection is a prefix too and always contains the argmax.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"p must be in (0, 1], got {p}")
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    n_nucleus = int(np.searchsorted(csum, p - NUCLEUS_TOL, side="left")) + 1
    n_keep = min(k, n_nucleus, len(probs))
    mask = np.zeros(len(probs), dtype=bool)
    mask[order[:n_keep]] = True
    return mask


def masked_distribution(probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Renormalize probabilities over the mask; zero elsewhere."""
    sub = np.where(mask, probs, 0.0)
    total = sub.sum()
    if total <= 0:
        raise ValidationError("mask selects zero probability mass")
    return sub / total


def sample_token(logits: np.ndarray, params: SamplingParams, rng: np.random.Generator,
                 size=None):
    """Draw a token id: tempered softmax, candidate filtering, renormalized
    inverse-CDF draw from the caller's generator.

    With size=n, returns an array of n iid draws from the same filtered
    distribution; this consumes the generator identically to n repeated
    scalar calls.
    """
    probs = apply_temperature(logits, params.temperature)
    mask = filter_candidates(probs, params.k, params.p)
    dist = masked_distribution(probs, mask)
    csum = np.cumsum(dist)
    last = int(np.nonzero(mask)[0][-1])
    if size is None:
        idx = int(np.searchsorted(csum, rng.random(), side="right"))
        return min(idx, last)
    idx = np.searchsorted(csum, rng.random(size), side="right")
    return np.minimum(idx, last).astype(np.int64)


@dataclass(frozen=True)
class GenerationResult:
    """A generated token stream plus whether it stopped on its own."""

    sequence: TokenSequence
    natural: bool


def generate(model, params: SamplingParams, max_len: int, rng: np.random.Generator,
             frame_rate: Fraction = DEFAULT_FRAME_RATE) -> GenerationResult:
    """Autoregressively sample from a logit source until the stop id appears.

    `model` is called with the token context (list of ids) and must return a
    logit vector over V + 1 ids, the last being the stop token. The stop
    token is not included in the returned stream; `natural` records whether
    generation terminated by stop (True) or by max_len (False).
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    context: list[int] = []
    natural = False
    stop_id = None
    for _ in range(max_len):
        logits = np.asarray(model(context), dtype=np.float64)
        if stop_id is None:
            stop_id = len(logits) - 1
        token = sample_token(logits, params, rng)
        if token == stop_id:
            natural = True
            break
        context.append(int(token))
    tokens = np.asarray([context], dtype=np.int64)
    seq = TokenSequence(tokens=tokens, vocab_size=stop_id, frame_rate=frame_rate)
    return GenerationResult(sequence=seq, natural=natural)
