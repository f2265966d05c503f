"""Little-endian binary containers.

Two formats:

* "DUSS": u32 version, u32 kind, u64 T, u64 D, frame rate as two u64
  (numerator, denominator), then a kind-specific payload. Kinds 1..3 are
  feature matrices (row-major T x D f64), 4 is an F0 track (D = 1), 5 is a
  trained codec, 6 is an n-gram model.
* "DUST": u32 version, u32 V, u32 Q, u64 T, frame rate as two u64, then
  Q x T u32 tokens row-major by stage.

Both formats are at version 2; files of any other version are rejected.
"""

from __future__ import annotations

import contextlib
import struct
from fractions import Fraction
from typing import Union

import numpy as np

from .codec import Codebook, CodecConfig, RvqCodec, TokenSequence
from .dsp import F0Track, FeatureKind, FeatureMatrix
from .errors import DataError, ValidationError
from .toylm import NgramModel

MAGIC_DUSS = b"DUSS"
MAGIC_DUST = b"DUST"
VERSION = 2

KIND_F0 = 4
KIND_CODEC = 5
KIND_NGRAM = 6

_HEADER = struct.Struct("<4sIIQQQQ")  # magic, version, kind, T, D, rate num/den
_DUST_HEADER = struct.Struct("<4sIIIQQQ")  # magic, version, V, Q, T, rate num/den


class _Reader:
    """Sequential reads over a byte buffer with truncation checking."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.off = 0
        self.path = path

    def need(self, n: int) -> None:
        if self.off + n > len(self.buf):
            raise DataError(
                f"{self.path}: truncated container (need {n} bytes at offset {self.off})")

    def take_struct(self, st: struct.Struct) -> tuple:
        self.need(st.size)
        out = st.unpack_from(self.buf, self.off)
        self.off += st.size
        return out

    def take_array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        self.need(dt.itemsize * count)
        out = np.frombuffer(self.buf, dtype=dt, count=count, offset=self.off)
        self.off += dt.itemsize * count
        return out

    def done(self) -> None:
        if self.off != len(self.buf):
            raise DataError(
                f"{self.path}: {len(self.buf) - self.off} trailing bytes after payload")


def _rate_pair(rate: Fraction) -> tuple:
    rate = Fraction(rate)
    if rate < 0:
        raise ValidationError(f"frame rate must be non-negative, got {rate}")
    return rate.numerator, rate.denominator


def _open_duss(path, expect_kind=None) -> tuple:
    with open(path, "rb") as fh:
        buf = fh.read()
    reader = _Reader(buf, path)
    magic, version, kind, t, d, num, den = reader.take_struct(_HEADER)
    if magic != MAGIC_DUSS:
        raise DataError(f"{path}: not a DUSS container (magic {magic!r})")
    if version != VERSION:
        raise DataError(f"{path}: unsupported DUSS version {version}")
    if den == 0:
        raise DataError(f"{path}: zero frame-rate denominator")
    if expect_kind is not None and kind != expect_kind:
        raise DataError(f"{path}: expected kind {expect_kind}, found {kind}")
    return reader, kind, t, d, Fraction(num, den)


@contextlib.contextmanager
def _invalid_payload(path, what: str):
    """Report a payload its dataclass rejects as a data error naming the file."""
    try:
        yield
    except ValidationError as exc:
        raise DataError(f"{path}: invalid {what}: {exc}") from None


def peek_kind(path) -> int:
    """Kind code of a DUSS file without loading its payload."""
    _, kind, _, _, _ = _open_duss(path)
    return kind


# ---------------------------------------------------------------------------
# Feature matrices and F0 tracks


def save_features(path, fm: FeatureMatrix) -> None:
    num, den = _rate_pair(fm.frame_rate)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_DUSS, VERSION, int(fm.kind),
                              fm.num_frames, fm.dim, num, den))
        fh.write(np.ascontiguousarray(fm.data, dtype="<f8").tobytes())


def load_features(path) -> FeatureMatrix:
    reader, kind, t, d, rate = _open_duss(path)
    if kind not in (FeatureKind.MEL_SPECTROGRAM, FeatureKind.MEL_CEPSTRUM,
                    FeatureKind.DECODED):
        raise DataError(f"{path}: kind {kind} is not a feature matrix")
    data = reader.take_array("<f8", t * d).reshape(t, d)
    reader.done()
    with _invalid_payload(path, "feature matrix"):
        return FeatureMatrix(data=data.astype(np.float64), frame_rate=rate,
                             kind=FeatureKind(kind))


def save_f0(path, track: F0Track) -> None:
    num, den = _rate_pair(track.frame_rate)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_DUSS, VERSION, KIND_F0,
                              len(track.values), 1, num, den))
        fh.write(np.ascontiguousarray(track.values, dtype="<f8").tobytes())


def load_f0(path) -> F0Track:
    reader, _, t, d, rate = _open_duss(path, expect_kind=KIND_F0)
    if d != 1:
        raise DataError(f"{path}: F0 track must have D = 1, found {d}")
    values = reader.take_array("<f8", t)
    reader.done()
    with _invalid_payload(path, "F0 track"):
        return F0Track(values=values.astype(np.float64), frame_rate=rate)


# ---------------------------------------------------------------------------
# Codecs

_CODEC_FIXED = struct.Struct("<IIIIIIQ")


def save_codec(path, codec: RvqCodec) -> None:
    cfg = codec.config
    if cfg.seed < 0:
        raise ValidationError(f"cannot serialize negative seed {cfg.seed}")
    num, den = _rate_pair(cfg.frame_rate)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_DUSS, VERSION, KIND_CODEC,
                              cfg.num_quantizers, cfg.feature_dim, num, den))
        fh.write(_CODEC_FIXED.pack(
            cfg.codebook_size, cfg.num_quantizers, cfg.hop, cfg.sample_rate,
            cfg.feature_dim, cfg.kmeans_iters, cfg.seed))
        for stage in codec.stages:
            fh.write(np.ascontiguousarray(stage.vectors, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(stage.usage_counts, dtype="<u8").tobytes())
        mse = list(codec.stage_train_mse)
        fh.write(struct.pack("<I", len(mse)))
        fh.write(np.asarray(mse, dtype="<f8").tobytes())


def load_codec(path) -> RvqCodec:
    reader, _, t, d, _ = _open_duss(path, expect_kind=KIND_CODEC)
    v, q, hop, sample_rate, feature_dim, kmeans_iters, seed = reader.take_struct(_CODEC_FIXED)
    if (t, d) != (q, feature_dim):
        raise DataError(f"{path}: header ({t}, {d}) disagrees with codec "
                        f"config ({q}, {feature_dim})")
    with _invalid_payload(path, "codec config"):
        cfg = CodecConfig(codebook_size=v, num_quantizers=q, hop=hop,
                          sample_rate=sample_rate, feature_dim=feature_dim,
                          kmeans_iters=kmeans_iters, seed=seed)
    arrays = [(reader.take_array("<f8", v * feature_dim).reshape(v, feature_dim),
               reader.take_array("<u8", v)) for _ in range(q)]
    (n_mse,) = reader.take_struct(struct.Struct("<I"))
    mse = reader.take_array("<f8", n_mse).astype(np.float64).tolist()
    reader.done()
    with _invalid_payload(path, "codebook"):
        stages = [Codebook(vectors=vectors.astype(np.float64),
                           usage_counts=usage.astype(np.int64))
                  for vectors, usage in arrays]
    return RvqCodec(config=cfg, stages=stages, stage_train_mse=mse)


# ---------------------------------------------------------------------------
# Token sequences ("DUST")


def save_tokens(path, seq: TokenSequence) -> None:
    num, den = _rate_pair(seq.frame_rate)
    with open(path, "wb") as fh:
        fh.write(_DUST_HEADER.pack(MAGIC_DUST, VERSION, seq.vocab_size,
                                   seq.num_stages, seq.num_frames, num, den))
        fh.write(np.ascontiguousarray(seq.tokens, dtype="<u4").tobytes())


def load_tokens(path) -> TokenSequence:
    with open(path, "rb") as fh:
        buf = fh.read()
    reader = _Reader(buf, path)
    magic, version, v, q, t, num, den = reader.take_struct(_DUST_HEADER)
    if magic != MAGIC_DUST:
        raise DataError(f"{path}: not a DUST token file (magic {magic!r})")
    if version != VERSION:
        raise DataError(f"{path}: unsupported DUST version {version}")
    if v < 1 or q < 1:
        raise DataError(f"{path}: invalid V={v}, Q={q}")
    if den == 0:
        raise DataError(f"{path}: zero frame-rate denominator")
    tokens = reader.take_array("<u4", q * t).reshape(q, t)
    reader.done()
    bad = np.nonzero(tokens >= v)
    if len(bad[0]):
        s, f = int(bad[0][0]), int(bad[1][0])
        raise DataError(f"{path}: token id {int(tokens[s, f])} >= V={v} "
                        f"at stage {s}, frame {f}")
    return TokenSequence(tokens=tokens.astype(np.int64), vocab_size=v,
                         frame_rate=Fraction(num, den))


# ---------------------------------------------------------------------------
# N-gram models


def save_ngram(path, model: NgramModel) -> None:
    """Contexts are written sorted by (length, tokens) with sparse non-zero
    count entries, so equal models serialize byte-identically."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC_DUSS, VERSION, KIND_NGRAM,
                              model.order, model.vocab_size, 0, 1))
        fh.write(struct.pack("<dQ", model.alpha, len(model.counts)))
        for ctx in sorted(model.counts, key=lambda c: (len(c), c)):
            row = model.counts[ctx]
            nz = np.nonzero(row)[0]
            fh.write(struct.pack("<I", len(ctx)))
            fh.write(np.asarray(ctx, dtype="<u4").tobytes())
            fh.write(struct.pack("<I", len(nz)))
            fh.write(np.ascontiguousarray(nz, dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(row[nz], dtype="<u8").tobytes())


def load_ngram(path) -> NgramModel:
    reader, _, order, vocab_size, _ = _open_duss(path, expect_kind=KIND_NGRAM)
    alpha, n_contexts = reader.take_struct(struct.Struct("<dQ"))
    with _invalid_payload(path, "model header"):
        model = NgramModel(order=int(order), vocab_size=int(vocab_size), alpha=alpha)
    for _ in range(n_contexts):
        (ctx_len,) = reader.take_struct(struct.Struct("<I"))
        ctx = tuple(int(x) for x in reader.take_array("<u4", ctx_len))
        if ctx_len >= model.order:
            raise DataError(f"{path}: context {ctx} too long for order {model.order}")
        (n_entries,) = reader.take_struct(struct.Struct("<I"))
        idx = reader.take_array("<u4", n_entries)
        counts = reader.take_array("<u8", n_entries)
        if len(idx) and idx.max() >= model.vocab_size:
            raise DataError(f"{path}: count index {int(idx.max())} outside "
                            f"vocabulary {model.vocab_size}")
        row = np.zeros(model.vocab_size, dtype=np.int64)
        row[idx.astype(np.int64)] = counts.astype(np.int64)
        model.counts[ctx] = row
    reader.done()
    return model


# ---------------------------------------------------------------------------
# Generic loading


def load_any(path) -> Union[FeatureMatrix, F0Track, RvqCodec, NgramModel]:
    """Dispatch a DUSS file to the loader matching its kind code."""
    kind = peek_kind(path)
    if kind in (FeatureKind.MEL_SPECTROGRAM, FeatureKind.MEL_CEPSTRUM,
                FeatureKind.DECODED):
        return load_features(path)
    if kind == KIND_F0:
        return load_f0(path)
    if kind == KIND_CODEC:
        return load_codec(path)
    if kind == KIND_NGRAM:
        return load_ngram(path)
    raise DataError(f"{path}: unknown DUSS kind {kind}")
