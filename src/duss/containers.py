"""Little-endian binary containers.

Two formats:

* "DUSS": u32 version, u32 kind, u64 T, u64 D, frame rate as two u64
  (numerator, denominator), then a kind-specific payload: 5 is a trained
  codec, 6 an n-gram model. A codec's fixed block holds its whole config,
  analysis included: the window is stored as its index in `dsp.WINDOW_NAMES`.
* "DUST": u32 version, u32 V, u32 Q, u64 T, frame rate as two u64, then
  Q x T u32 tokens row-major by stage.

Both formats are at version 3; files of any other version are rejected.
Every save goes through `errors.atomic_write`, so an interrupted save leaves
no truncated file.
"""

from __future__ import annotations

import contextlib
import itertools
import struct
from fractions import Fraction
from typing import Iterable

import numpy as np

from .codec import Codebook, CodecConfig, RvqCodec, TokenSequence
from .dsp import WINDOW_NAMES
from .errors import DataError, ValidationError, atomic_write
from .toylm import NgramModel

MAGIC_DUSS = b"DUSS"
MAGIC_DUST = b"DUST"
VERSION = 3

KIND_CODEC = 5
KIND_NGRAM = 6

# Both headers are magic, version, three format fields, rate num/den:
# DUSS kind, T, D and DUST V, Q, T.
_HEADERS = {MAGIC_DUSS: struct.Struct("<4sIIQQQQ"), MAGIC_DUST: struct.Struct("<4sIIIQQQ")}


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


def _open(path, magic: bytes, kind=None) -> tuple:
    """Read a container and check its header; a DUSS file's kind must be
    `kind`. Returns (reader, the three format fields, frame rate)."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    found, version, *fields, num, den = reader.take_struct(_HEADERS[magic])
    name = magic.decode()
    if found != magic:
        raise DataError(f"{path}: not a {name} file (magic {found!r})")
    if version != VERSION:
        raise DataError(f"{path}: unsupported {name} version {version}")
    if den == 0:
        raise DataError(f"{path}: zero frame-rate denominator")
    if kind is not None and fields[0] != kind:
        raise DataError(f"{path}: found kind {fields[0]}, expected {kind}")
    return reader, fields, Fraction(num, den)


def _write(path, magic: bytes, fields: tuple, rate, payload: Iterable[bytes]) -> None:
    """Write the header and the payload chunks; `path` is left as it was if
    any chunk fails."""
    rate = Fraction(rate)
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADERS[magic].pack(magic, VERSION, *fields,
                                      rate.numerator, rate.denominator))
        for chunk in payload:
            fh.write(chunk)


@contextlib.contextmanager
def _invalid_payload(path, what: str):
    """Report a payload its dataclass rejects as a data error naming the file."""
    try:
        yield
    except ValidationError as exc:
        raise DataError(f"{path}: invalid {what}: {exc}") from None


def _f8(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


# ---------------------------------------------------------------------------
# Codecs

_CODEC_FIXED = struct.Struct("<IIIIIIIIQ")


def save_codec(path, codec: RvqCodec) -> None:
    cfg = codec.config
    if cfg.seed < 0:
        raise ValidationError(f"cannot serialize negative seed {cfg.seed}")
    mse = list(codec.stage_train_mse)
    payload = [_CODEC_FIXED.pack(cfg.codebook_size, cfg.num_quantizers, cfg.hop,
                                 cfg.sample_rate, cfg.frame_len, WINDOW_NAMES.index(cfg.window),
                                 cfg.feature_dim, cfg.kmeans_iters, cfg.seed)]
    for stage in codec.stages:
        payload += [_f8(stage.vectors),
                    np.ascontiguousarray(stage.usage_counts, dtype="<u8").tobytes()]
    payload += [struct.pack("<I", len(mse)), _f8(mse)]
    _write(path, MAGIC_DUSS, (KIND_CODEC, cfg.num_quantizers, cfg.feature_dim),
           cfg.frame_rate, payload)


def load_codec(path) -> RvqCodec:
    reader, (_, t, d), _ = _open(path, MAGIC_DUSS, kind=KIND_CODEC)
    (v, q, hop, sample_rate, frame_len, window, feature_dim, kmeans_iters,
     seed) = reader.take_struct(_CODEC_FIXED)
    if (t, d) != (q, feature_dim):
        raise DataError(f"{path}: header ({t}, {d}) disagrees with codec "
                        f"config ({q}, {feature_dim})")
    if window >= len(WINDOW_NAMES):
        raise DataError(f"{path}: window index {window} outside {WINDOW_NAMES}")
    with _invalid_payload(path, "codec config"):
        cfg = CodecConfig(codebook_size=v, num_quantizers=q, hop=hop,
                          sample_rate=sample_rate, frame_len=frame_len,
                          window=WINDOW_NAMES[window], feature_dim=feature_dim,
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
    _write(path, MAGIC_DUST, (seq.vocab_size, seq.num_stages, seq.num_frames),
           seq.frame_rate, [np.ascontiguousarray(seq.tokens, dtype="<u4").tobytes()])


def load_tokens(path) -> TokenSequence:
    reader, (v, q, t), rate = _open(path, MAGIC_DUST)
    if v < 1 or q < 1:
        raise DataError(f"{path}: invalid V={v}, Q={q}")
    tokens = reader.take_array("<u4", q * t).reshape(q, t)
    reader.done()
    bad = np.nonzero(tokens >= v)
    if len(bad[0]):
        s, f = int(bad[0][0]), int(bad[1][0])
        raise DataError(f"{path}: token id {int(tokens[s, f])} >= V={v} "
                        f"at stage {s}, frame {f}")
    return TokenSequence(tokens=tokens.astype(np.int64), vocab_size=v, frame_rate=rate)


# ---------------------------------------------------------------------------
# N-gram models


def save_ngram(path, model: NgramModel) -> None:
    """Contexts are written sorted by (length, tokens), each with its (ids,
    counts) row, so equal models serialize byte-identically. A model that
    breaks the canonical rule load_ngram reads back raises ValidationError,
    and `path` keeps its bytes."""
    _write(path, MAGIC_DUSS, (KIND_NGRAM, model.order, model.vocab_size), 0,
           _ngram_payload(model))


# The canonical n-gram rule, which save_ngram and load_ngram both hold a model
# to: vocab_size <= 2**32 (ids are <u4), contexts shorter than the order,
# context tokens and ids in [0, vocab_size), ids strictly increasing, and one
# positive count per id.

def _check_ngram_vocab(vocab_size: int) -> None:
    if vocab_size > 2 ** 32:
        raise ValidationError(f"vocab_size {vocab_size} exceeds the u32 token ids")


def _check_ngram_rows(model: NgramModel, contexts: list, rows: list) -> None:
    """Hold the contexts and their (ids, counts) rows to the rule above, all at
    once; the error names the first context that breaks the first rule broken."""
    v = model.vocab_size
    parts = (contexts, [ids for ids, _ in rows], [counts for _, counts in rows])
    ctx_len, id_len, count_len = (np.fromiter(map(len, p), np.int64, len(p)) for p in parts)
    ctx_row, id_row, count_row = (np.repeat(np.arange(len(rows)), n)
                                  for n in (ctx_len, id_len, count_len))
    # float64, so that a context token of any size compares, and none overflows
    tokens = np.fromiter(itertools.chain.from_iterable(contexts), np.float64, len(ctx_row))
    ids, counts = (np.concatenate([np.empty(0, np.int64), *p]) for p in parts[1:])
    broken = {  # rule -> rows that break it
        f"too long for order {model.order}": np.nonzero(ctx_len >= model.order)[0],
        f"has a token or id outside vocabulary {v}": np.concatenate(
            [ctx_row[(tokens < 0) | (tokens >= v)], id_row[(ids < 0) | (ids >= v)]]),
        "needs strictly increasing ids and one positive count each": np.concatenate(
            [np.nonzero(id_len != count_len)[0], count_row[counts <= 0],
             id_row[1:][(ids[1:] <= ids[:-1]) & (id_row[1:] == id_row[:-1])]]),
    }
    for rule, bad in broken.items():
        if len(bad):
            raise ValidationError(f"context {contexts[bad.min()]} {rule}")


def _ngram_payload(model: NgramModel):
    _check_ngram_vocab(model.vocab_size)
    contexts = sorted(model.counts, key=lambda c: (len(c), c))
    rows = [model.counts[ctx] for ctx in contexts]
    _check_ngram_rows(model, contexts, rows)
    yield struct.pack("<dQ", model.alpha, len(contexts))
    for ctx, (ids, counts) in zip(contexts, rows):
        yield struct.pack("<I", len(ctx)) + np.asarray(ctx, dtype="<u4").tobytes()
        yield struct.pack("<I", len(ids)) + np.ascontiguousarray(ids, dtype="<u4").tobytes()
        yield np.ascontiguousarray(counts, dtype="<u8").tobytes()


def load_ngram(path) -> NgramModel:
    """Keep each row as stored. Only a payload that save_ngram writes loads
    (its context order and the canonical rule above), so a load allocates no
    more than the file holds and re-saving matches it."""
    reader, (_, order, vocab_size), _ = _open(path, MAGIC_DUSS, kind=KIND_NGRAM)
    alpha, n_contexts = reader.take_struct(struct.Struct("<dQ"))
    with _invalid_payload(path, "model header"):
        _check_ngram_vocab(vocab_size)
        model = NgramModel(order=int(order), vocab_size=int(vocab_size), alpha=alpha)
    previous = None
    for _ in range(n_contexts):
        (ctx_len,) = reader.take_struct(struct.Struct("<I"))
        ctx = tuple(reader.take_array("<u4", ctx_len).tolist())
        if previous is not None and (ctx_len, ctx) <= previous:
            raise DataError(f"{path}: context {ctx} out of order")
        previous = (ctx_len, ctx)
        (n_entries,) = reader.take_struct(struct.Struct("<I"))
        model.counts[ctx] = (reader.take_array("<u4", n_entries).astype(np.int64),
                             reader.take_array("<u8", n_entries).astype(np.int64))
    reader.done()
    with _invalid_payload(path, "n-gram row"):
        _check_ngram_rows(model, list(model.counts), list(model.counts.values()))
    return model
