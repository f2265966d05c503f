"""Residual vector quantizer: staged k-means codebook learning with its
per-stage training error, and encode/decode."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

import numpy as np

from .dsp import (DEFAULT_FRAME_LEN, DEFAULT_HOP, DEFAULT_N_MELS, DEFAULT_SAMPLE_RATE,
                  DEFAULT_WINDOW, WINDOW_NAMES, AnalysisConfig, FeatureKind, FeatureMatrix)
from .errors import ValidationError


@dataclass(frozen=True)
class CodecConfig:
    """Quantizer configuration: codebook shape, the k-means iteration budget
    and the `analysis` its features come from, with feature_dim mel bands."""

    codebook_size: int = 1024
    num_quantizers: int = 2
    hop: int = DEFAULT_HOP
    sample_rate: int = DEFAULT_SAMPLE_RATE
    frame_len: int = DEFAULT_FRAME_LEN
    window: str = DEFAULT_WINDOW
    feature_dim: int = DEFAULT_N_MELS
    kmeans_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.codebook_size < 2:
            raise ValidationError(f"codebook_size must be >= 2, got {self.codebook_size}")
        if self.num_quantizers < 1:
            raise ValidationError(f"num_quantizers must be >= 1, got {self.num_quantizers}")
        if not 1 <= self.hop <= self.frame_len or self.sample_rate < 1 or self.feature_dim < 1:
            raise ValidationError("need 1 <= hop <= frame_len and positive sample_rate and "
                                  f"feature_dim, got hop={self.hop}, frame_len={self.frame_len}")
        if self.window not in WINDOW_NAMES:
            raise ValidationError(f"unknown window {self.window!r}, expected one of {WINDOW_NAMES}")
        if self.kmeans_iters < 1:
            raise ValidationError(f"kmeans_iters must be >= 1, got {self.kmeans_iters}")

    @property
    def frame_rate(self) -> Fraction:
        return Fraction(self.sample_rate, self.hop)

    @property
    def analysis(self) -> AnalysisConfig:
        return AnalysisConfig(sample_rate=self.sample_rate, frame_len=self.frame_len,
                              hop=self.hop, window=self.window, n_mels=self.feature_dim)


@dataclass
class Codebook:
    """One quantizer stage: V reference vectors plus training usage counts."""

    vectors: np.ndarray
    usage_counts: np.ndarray

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        self.usage_counts = np.asarray(self.usage_counts, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ValidationError("codebook vectors must be a V x D matrix")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("codebook vectors must be finite")
        if self.usage_counts.shape != (self.vectors.shape[0],):
            raise ValidationError("usage_counts must have one entry per code vector")


@dataclass
class RvqCodec:
    """Ordered list of per-stage codebooks with their training error trace."""

    config: CodecConfig
    stages: List[Codebook]
    stage_train_mse: List[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.stages) != self.config.num_quantizers:
            raise ValidationError(
                f"expected {self.config.num_quantizers} stages, got {len(self.stages)}")
        for cb in self.stages:
            if cb.vectors.shape != (self.config.codebook_size, self.config.feature_dim):
                raise ValidationError(
                    f"stage shape {cb.vectors.shape} does not match config "
                    f"({self.config.codebook_size}, {self.config.feature_dim})")


@dataclass(frozen=True)
class TokenSequence:
    """Q parallel integer token streams of equal length T.

    Tokens are in [0, vocab_size); the stop id of generation is vocab_size
    by convention, so it never appears in a sequence.
    """

    tokens: np.ndarray
    vocab_size: int
    frame_rate: Fraction

    def __post_init__(self):
        tokens = np.ascontiguousarray(np.asarray(self.tokens, dtype=np.int64))
        if tokens.ndim != 2:
            raise ValidationError(f"tokens must be a Q x T matrix, got shape {tokens.shape}")
        if self.vocab_size < 1:
            raise ValidationError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab_size):
            raise ValidationError(
                f"tokens must lie in [0, {self.vocab_size}), "
                f"got range [{tokens.min()}, {tokens.max()}]")
        rate = Fraction(self.frame_rate)
        if rate <= 0:
            raise ValidationError(f"frame_rate must be positive, got {rate}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "frame_rate", rate)

    @property
    def num_stages(self) -> int:
        return self.tokens.shape[0]

    @property
    def num_frames(self) -> int:
        return self.tokens.shape[1]


def nearest_code(vectors: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Index of the nearest code vector per frame; ties go to the lowest index."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is constant
    # per frame and does not affect the argmin.
    scores = -2.0 * frames @ vectors.T
    scores += np.sum(vectors * vectors, axis=1)
    return np.argmin(scores, axis=1)


def kmeans_pp_init(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws from the data.

    Each draw updates d2 = min(d2, ||x - c||^2) exactly on the rows whose
    expansion ||x||^2 + ||c||^2 - 2 x.c is NaN or within its float64 error
    bound, slack * (||x||^2 + ||c||^2 + tiny), of d2. No other row could
    lower its d2, so the centres are those of the plain loop bit for bit."""
    n, dim = frames.shape
    slack = 4 * (dim + 2) * np.finfo(float).eps
    tiny = np.finfo(float).tiny
    centers = np.empty((k, dim))
    centers[0] = frames[rng.integers(n)]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(frames * frames, axis=1)
        d2 = np.sum((frames - centers[0]) ** 2, axis=1)
        for j in range(1, k):
            total = d2.sum()
            if total <= 0:
                idx = int(rng.integers(n))
            else:
                cdf = (d2 / total).cumsum()  # rng.choice(n, p=d2 / total) without its check of p
                idx = int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
            centers[j] = c = frames[idx]
            s = sq + sq[idx]
            rows = np.flatnonzero(~(s - 2.0 * (frames @ c) > d2 + slack * (s + tiny)))
            d2[rows] = np.minimum(d2[rows], np.sum((frames[rows] - c) ** 2, axis=1))
    return centers


def lloyd_kmeans(frames: np.ndarray, centers: np.ndarray, iters: int):
    """Lloyd iterations with dead-code reseeding.

    Each iteration assigns frames to their nearest center, recomputes
    centroids with a stable deterministic reduction, then moves any
    zero-assignment center onto the not-yet-taken frame with the largest
    residual error. Stops early once assignments are stable and no reseed
    happened. Returns (centers, assignments, counts).
    """
    k = centers.shape[0]
    centers = centers.copy()
    assign = nearest_code(centers, frames)
    for _ in range(iters):
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, frames)
        alive = counts > 0
        centers[alive] = sums[alive] / counts[alive][:, None]
        dead = np.nonzero(~alive)[0]
        if len(dead):
            errors = np.sum((frames - centers[assign]) ** 2, axis=1)
            worst = np.argsort(-errors, kind="stable")
            for slot, code in enumerate(dead):
                centers[code] = frames[worst[slot % len(worst)]]
        new_assign = nearest_code(centers, frames)
        if len(dead) == 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    counts = np.bincount(assign, minlength=k)
    return centers, assign, counts


def _collect_frames(features) -> tuple:
    if isinstance(features, FeatureMatrix):
        features = [features]
    if not features:
        raise ValidationError("no feature matrices supplied")
    dim = features[0].dim
    rate = features[0].frame_rate
    for fm in features:
        if fm.dim != dim:
            raise ValidationError(f"feature dim mismatch: {fm.dim} != {dim}")
        if fm.frame_rate != rate:
            raise ValidationError(f"frame rate mismatch: {fm.frame_rate} != {rate}")
    stacked = np.concatenate([fm.data for fm in features], axis=0)
    return stacked, dim, rate


def train_codebooks(features, config: CodecConfig) -> RvqCodec:
    """Fit the staged quantizer on feature frames.

    Stage s is fit by seeded k-means on the residuals left after subtracting
    stages < s; the mean squared residual after each stage is recorded on
    the returned codec.
    """
    frames, dim, _rate = _collect_frames(features)
    if dim != config.feature_dim:
        raise ValidationError(
            f"feature dim {dim} does not match config feature_dim {config.feature_dim}")
    if frames.shape[0] < config.codebook_size:
        raise ValidationError(
            f"insufficient training frames: need >= {config.codebook_size}, "
            f"got {frames.shape[0]}")
    rng = np.random.default_rng(config.seed)
    residual = frames.copy()
    stages = []
    stage_mse = []
    for _ in range(config.num_quantizers):
        init = kmeans_pp_init(residual, config.codebook_size, rng)
        centers, assign, counts = lloyd_kmeans(residual, init, config.kmeans_iters)
        stages.append(Codebook(vectors=centers, usage_counts=counts))
        residual = residual - centers[assign]
        stage_mse.append(float(np.mean(np.sum(residual * residual, axis=1))))
    return RvqCodec(config=config, stages=stages, stage_train_mse=stage_mse)


def encode(codec: RvqCodec, features: FeatureMatrix) -> TokenSequence:
    """Quantize features to per-stage token streams (nearest code on the
    running residual, ties to the lowest index)."""
    if features.dim != codec.config.feature_dim:
        raise ValidationError(
            f"feature dim {features.dim} does not match codec dim {codec.config.feature_dim}")
    residual = features.data.copy()
    streams = np.empty((len(codec.stages), features.num_frames), dtype=np.int64)
    for s, cb in enumerate(codec.stages):
        assign = nearest_code(cb.vectors, residual)
        streams[s] = assign
        residual -= cb.vectors[assign]
    return TokenSequence(tokens=streams, vocab_size=codec.config.codebook_size,
                         frame_rate=features.frame_rate)


def decode(codec: RvqCodec, tokens: TokenSequence) -> FeatureMatrix:
    """Sum the selected code vectors per frame over the first tokens.num_stages
    stages, so a single-stream (e.g. generated) sequence renders through a
    multi-stage codec as a coarse reconstruction."""
    if tokens.num_stages > len(codec.stages):
        raise ValidationError(
            f"token stages {tokens.num_stages} exceed codec stages {len(codec.stages)}")
    if tokens.vocab_size != codec.config.codebook_size:
        raise ValidationError(
            f"token vocab {tokens.vocab_size} != codebook size {codec.config.codebook_size}")
    out = np.zeros((tokens.num_frames, codec.config.feature_dim))
    for s in range(tokens.num_stages):
        out += codec.stages[s].vectors[tokens.tokens[s]]
    return FeatureMatrix(out, tokens.frame_rate, FeatureKind.MEL_SPECTROGRAM)
