"""Order-n Markov token model with additive smoothing.

A desk-scale autoregressive logit source for the sampler: unconditional over
token streams, with a stop id appended to every training utterance.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .codec import TokenSequence
from .errors import ValidationError

Context = Tuple[int, ...]

DEFAULT_ORDER = 3
DEFAULT_ALPHA = 0.1


@dataclass
class NgramModel:
    """Counts over contexts of length < order, smoothed with alpha.

    vocab_size includes the stop id (vocab_size - 1). Each context maps to
    the (ids, counts) of the tokens seen after it: int64 arrays, ids strictly
    increasing and counts positive, as the `.duss` n-gram payload stores them.
    """

    order: int
    vocab_size: int
    alpha: float
    counts: Dict[Context, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")
        if self.vocab_size < 2:
            raise ValidationError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not 0 < self.alpha < np.inf:
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def stop_id(self) -> int:
        return self.vocab_size - 1

    def __call__(self, context: Sequence[int]) -> np.ndarray:
        return logits(self, context)


def train_ngram(corpora: Sequence[TokenSequence], n: int = DEFAULT_ORDER,
                alpha: float = DEFAULT_ALPHA) -> NgramModel:
    """Accumulate context counts over token corpora.

    Each sequence counts as one utterance: its stage-0 stream, the ids that
    generation renders through the codec's first stage, with the stop id
    appended. All corpora must share the first one's token vocabulary; the
    model's vocab_size is that V + 1, including stop.
    """
    if not corpora:
        raise ValidationError("train_ngram needs at least one token sequence")
    vocab_size = corpora[0].vocab_size + 1
    model = NgramModel(order=n, vocab_size=vocab_size, alpha=alpha)
    tables: Dict[Context, Counter] = defaultdict(Counter)
    for seq in corpora:
        if seq.vocab_size + 1 != vocab_size:
            raise ValidationError(
                f"vocabulary mismatch: sequence has V={seq.vocab_size}, "
                f"model expects V={vocab_size - 1}")
        for stream in seq.tokens[:1]:
            utterance = stream.tolist() + [model.stop_id]
            for i, token in enumerate(utterance):
                for length in range(min(n - 1, i) + 1):
                    tables[tuple(utterance[i - length:i])][token] += 1
    for ctx, table in tables.items():
        ids = sorted(table)
        model.counts[ctx] = (np.array(ids, dtype=np.int64),
                             np.array([table[t] for t in ids], dtype=np.int64))
    return model


def logits(model: NgramModel, context: Sequence[int]) -> np.ndarray:
    """Smoothed log-probabilities for the longest stored suffix of context.

    Backs off to shorter suffixes down to the empty context; a context never
    seen at any order yields uniform logits. exp(logits) always sums to 1.
    Only the last order - 1 tokens can match a stored context, so only they
    are read and range-checked; older tokens never affect the result.
    """
    limit = min(model.order - 1, len(context))
    suffix = [int(t) for t in context[len(context) - limit:]]
    for token in suffix:
        if not (0 <= token < model.vocab_size):
            raise ValidationError(f"context token {token} outside vocabulary")
    for length in range(limit, -1, -1):
        row = model.counts.get(tuple(suffix[limit - length:]))
        if row is not None:
            ids, counts = row
            smoothed = np.full(model.vocab_size, model.alpha)
            smoothed[ids] += counts
            return np.log(smoothed / smoothed.sum())
    return np.full(model.vocab_size, -np.log(model.vocab_size))
