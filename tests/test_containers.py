"""Binary container round trips and corruption handling for the DUSS and
DUST file formats."""

import dataclasses
import math
import os
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duss import containers as ct
from duss.codec import CodecConfig, RvqCodec, TokenSequence, train_codebooks
from duss.errors import DataError, ValidationError
from duss.sampler import SamplingParams, generate
from duss.toylm import NgramModel, train_ngram

from conftest import FRAME_RATE


def corrupt(path, offset, value_u32):
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, offset, value_u32)
    path.write_bytes(bytes(buf))


class TestFormatConstants:
    def test_magics_and_version(self):
        assert ct.MAGIC_DUSS == b"DUSS"
        assert ct.MAGIC_DUST == b"DUST"
        assert ct.VERSION == 3

    def test_kind_codes_are_frozen(self):
        # on-disk format constants; renumbering breaks existing files
        assert ct.KIND_CODEC == 5
        assert ct.KIND_NGRAM == 6


def _save_codec(path, tiny_codec):
    ct.save_codec(path, tiny_codec[0])
    return ct.load_codec


def _save_tokens(path, tiny_codec):
    ct.save_tokens(path, TokenSequence(tokens=np.array([[0, 3], [1, 2]]), vocab_size=4,
                                       frame_rate=FRAME_RATE))
    return ct.load_tokens


def _save_ngram(path, tiny_codec):
    ct.save_ngram(path, self_model())
    return ct.load_ngram


class TestEveryKind:
    """Header and framing checks that every container kind shares."""

    savers = pytest.mark.parametrize("save", [_save_codec, _save_tokens, _save_ngram],
                                     ids=["codec", "tokens", "ngram"])

    @savers
    def test_rejects_wrong_magic(self, tmp_path, tiny_codec, save):
        path = tmp_path / "bad.bin"
        load = save(path, tiny_codec)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(DataError, match="magic"):
            load(path)

    @savers
    def test_rejects_wrong_version(self, tmp_path, tiny_codec, save):
        path = tmp_path / "bad.bin"
        load = save(path, tiny_codec)
        corrupt(path, 4, 99)
        with pytest.raises(DataError, match="version 99"):
            load(path)

    @savers
    def test_rejects_truncation(self, tmp_path, tiny_codec, save):
        path = tmp_path / "cut.bin"
        load = save(path, tiny_codec)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load(path)

    @savers
    def test_rejects_trailing_bytes(self, tmp_path, tiny_codec, save):
        path = tmp_path / "extra.bin"
        load = save(path, tiny_codec)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load(path)


class TestCodecFiles:
    def test_round_trip(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        path = tmp_path / "codec.duss"
        ct.save_codec(path, codec)
        got = ct.load_codec(path)
        assert got.config == codec.config
        assert len(got.stages) == 2
        for sa, sb in zip(got.stages, codec.stages):
            np.testing.assert_array_equal(sa.vectors, sb.vectors)
            np.testing.assert_array_equal(sa.usage_counts, sb.usage_counts)
        np.testing.assert_allclose(got.stage_train_mse, codec.stage_train_mse,
                                   rtol=0, atol=0)
        # the analysis settings travel with the codec
        assert (got.config.frame_len, got.config.window) == (2048, "hann")
        for frame_len, window in ((1024, "hamming"), (512, "rectangular")):
            cfg = dataclasses.replace(codec.config, frame_len=frame_len, window=window)
            ct.save_codec(path, RvqCodec(config=cfg, stages=codec.stages))
            got = ct.load_codec(path).config
            assert (got.frame_len, got.window) == (frame_len, window)
            assert got.analysis == cfg.analysis

    def test_rejects_window_index_out_of_range(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        path = tmp_path / "codec.duss"
        ct.save_codec(path, codec)
        # v, q, hop, sample_rate and frame_len come before the window index
        corrupt(path, ct._HEADERS[ct.MAGIC_DUSS].size + 5 * 4, 3)
        with pytest.raises(DataError, match="window index 3"):
            ct.load_codec(path)

    def test_repeated_saves_byte_identical(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        a, b = tmp_path / "a.duss", tmp_path / "b.duss"
        ct.save_codec(a, codec)
        ct.save_codec(b, codec)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_negative_seed(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        bad = RvqCodec(config=CodecConfig(codebook_size=8, num_quantizers=2,
                                          feature_dim=8, seed=-1),
                       stages=list(codec.stages),
                       stage_train_mse=list(codec.stage_train_mse))
        with pytest.raises(ValidationError, match="seed"):
            ct.save_codec(tmp_path / "bad.duss", bad)

    def test_rejects_header_disagreement(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        path = tmp_path / "codec.duss"
        ct.save_codec(path, codec)
        corrupt(path, 12, 9)  # header T field (= num_quantizers)
        with pytest.raises(DataError, match="disagrees"):
            ct.load_codec(path)

    def test_rejects_truncated_stage(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        path = tmp_path / "codec.duss"
        ct.save_codec(path, codec)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="truncated"):
            ct.load_codec(path)

    def test_rejects_nan_code_vector(self, tmp_path, tiny_codec):
        codec, _ = tiny_codec
        path = tmp_path / "codec.duss"
        ct.save_codec(path, codec)
        buf = bytearray(path.read_bytes())
        offset = ct._HEADERS[ct.MAGIC_DUSS].size + ct._CODEC_FIXED.size
        struct.pack_into("<d", buf, offset, float("nan"))
        path.write_bytes(bytes(buf))
        with pytest.raises(DataError, match="invalid codebook"):
            ct.load_codec(path)


class TestTokenFiles:
    def _seq(self):
        tokens = np.array([[0, 3, 2, 1], [1, 1, 0, 2]], dtype=np.int64)
        return TokenSequence(tokens=tokens, vocab_size=4, frame_rate=FRAME_RATE)

    def test_round_trip(self, tmp_path):
        seq = self._seq()
        path = tmp_path / "tok.dust"
        ct.save_tokens(path, seq)
        got = ct.load_tokens(path)
        np.testing.assert_array_equal(got.tokens, seq.tokens)
        assert got.vocab_size == 4
        assert got.frame_rate == FRAME_RATE

    def test_stop_id_not_stored(self, tmp_path):
        """A stream generated up to its stop id (V = 4) saves as the same bytes as
        the tokens before the stop."""
        def stops_after_three(context):
            return np.array([0.0, -50.0, -50.0, -50.0, 50.0 if len(context) == 3 else -50.0])

        result = generate(stops_after_three, SamplingParams(k=1, p=1.0, temperature=1.0),
                          10, np.random.default_rng(0), frame_rate=FRAME_RATE)
        assert result.natural
        generated, plain = tmp_path / "gen.dust", tmp_path / "plain.dust"
        ct.save_tokens(generated, result.sequence)
        ct.save_tokens(plain, TokenSequence(tokens=np.zeros((1, 3), dtype=np.int64),
                                            vocab_size=4, frame_rate=FRAME_RATE))
        assert generated.read_bytes() == plain.read_bytes()

    def test_repeated_saves_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.dust", tmp_path / "b.dust"
        ct.save_tokens(a, self._seq())
        ct.save_tokens(b, self._seq())
        assert a.read_bytes() == b.read_bytes()

    def test_empty_sequence(self, tmp_path):
        seq = TokenSequence(tokens=np.zeros((2, 0), dtype=np.int64),
                            vocab_size=4, frame_rate=FRAME_RATE)
        path = tmp_path / "empty.dust"
        ct.save_tokens(path, seq)
        got = ct.load_tokens(path)
        assert got.num_frames == 0
        assert got.num_stages == 2

    def test_token_over_vocab_names_position(self, tmp_path):
        path = tmp_path / "tok.dust"
        ct.save_tokens(path, self._seq())
        corrupt(path, 8, 2)  # shrink V to 2; token 3 sits at stage 0, frame 1
        with pytest.raises(DataError, match=r"token id 3 >= V=2 at stage 0, frame 1"):
            ct.load_tokens(path)

    def test_exact_rational_rate_preserved(self, tmp_path):
        path = tmp_path / "rate.dust"
        ct.save_tokens(path, TokenSequence(tokens=np.zeros((1, 2), dtype=np.int64),
                                           vocab_size=4, frame_rate=Fraction(100, 3)))
        assert ct.load_tokens(path).frame_rate == Fraction(100, 3)

    def test_rejects_duss_magic(self, tmp_path, tiny_codec):
        path = tmp_path / "codec.duss"
        ct.save_codec(path, tiny_codec[0])
        with pytest.raises(DataError, match="not a DUST"):
            ct.load_tokens(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "tok.dust"
        ct.save_tokens(path, self._seq())
        path.write_bytes(path.read_bytes() + b"xy")
        with pytest.raises(DataError, match="trailing"):
            ct.load_tokens(path)


class TestNgramFiles:
    def _model(self, order="fwd"):
        rng = np.random.default_rng(5)
        seqs = []
        for _ in range(4):
            tokens = rng.integers(0, 6, size=(1, int(rng.integers(2, 10))))
            seqs.append(TokenSequence(tokens=tokens, vocab_size=6,
                                      frame_rate=FRAME_RATE))
        if order == "rev":
            seqs = seqs[::-1]
        return train_ngram(seqs, n=3, alpha=0.25)

    def test_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, model)
        got = ct.load_ngram(path)
        assert (got.order, got.vocab_size, got.alpha) == (3, 7, 0.25)
        assert set(got.counts) == set(model.counts)
        for ctx, row in model.counts.items():
            np.testing.assert_array_equal(got.counts[ctx], row)
        again = tmp_path / "again.duss"
        ct.save_ngram(again, got)
        assert again.read_bytes() == path.read_bytes()

    def test_serialization_is_canonical(self, tmp_path):
        """Models trained from the same corpus in different orders hold the
        same counts and must serialize to identical bytes."""
        a, b = tmp_path / "a.duss", tmp_path / "b.duss"
        ct.save_ngram(a, self._model("fwd"))
        ct.save_ngram(b, self._model("rev"))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_overlong_context(self, tmp_path):
        model = self._model()
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, model)
        buf = bytearray(path.read_bytes())
        # order field lives in the header's T slot
        struct.pack_into("<Q", buf, 12, 1)
        path.write_bytes(bytes(buf))
        with pytest.raises(DataError, match="too long"):
            ct.load_ngram(path)

    def test_rejects_count_index_outside_vocab(self, tmp_path):
        model = train_ngram([TokenSequence(tokens=np.array([[0]]), vocab_size=2,
                                           frame_rate=FRAME_RATE)], n=1, alpha=0.1)
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, model)
        buf = bytearray(path.read_bytes())
        struct.pack_into("<Q", buf, 20, 2)  # shrink vocab below stored index
        path.write_bytes(bytes(buf))
        with pytest.raises(DataError, match="outside"):
            ct.load_ngram(path)

    def test_rejects_vocab_beyond_u32_ids(self, tmp_path):
        """A header vocabulary no <u4 id can reach is refused before anything
        is allocated for it."""
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, self._model())
        buf = bytearray(path.read_bytes())
        struct.pack_into("<Q", buf, 20, 2 ** 40)
        path.write_bytes(bytes(buf))
        with pytest.raises(DataError, match="vocab_size"):
            ct.load_ngram(path)

    def test_rejects_infinite_alpha(self, tmp_path):
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, self._model())
        buf = bytearray(path.read_bytes())
        assert struct.unpack_from("<d", buf, 44) == (0.25,)  # alpha follows the header
        struct.pack_into("<d", buf, 44, math.inf)
        path.write_bytes(bytes(buf))
        with pytest.raises(DataError, match="invalid model header: alpha must be positive"):
            ct.load_ngram(path)

    @pytest.mark.parametrize("ids, counts", [
        ([2, 0], [1, 1]),  # ids out of order
        ([0, 0], [1, 1]),  # repeated id
        ([0, 2], [1, 0]),  # a count of 0
    ])
    def test_rejects_non_canonical_row(self, tmp_path, ids, counts):
        """save_ngram refuses the row, and a file that holds it fails to load."""
        model = NgramModel(order=1, vocab_size=3, alpha=0.1,
                           counts={(): (np.array(ids), np.array(counts))})
        path = tmp_path / "lm.duss"
        with pytest.raises(ValidationError, match="strictly increasing ids"):
            ct.save_ngram(path, model)
        row = (struct.pack("<dQII", 0.1, 1, 0, len(ids)) + np.array(ids, "<u4").tobytes()
               + np.array(counts, "<u8").tobytes())
        ct._write(path, ct.MAGIC_DUSS, (ct.KIND_NGRAM, 1, 3), 0, [row])
        with pytest.raises(DataError, match="strictly increasing ids"):
            ct.load_ngram(path)

    @pytest.mark.parametrize("vocab_size, ctx, ids, match", [
        (3, (), [2 ** 32 + 1], "outside vocabulary"),  # once saved as id 1
        (3, (5,), [0], "outside vocabulary"),
        (3, (0, 0), [0], "too long"),
        (2 ** 32 + 1, (), [0], "vocab_size"),
    ])
    def test_save_refuses_what_load_would_not_read(self, tmp_path, vocab_size, ctx, ids,
                                                   match):
        """A model outside the canonical rule fails to save, and the file
        already at the path keeps its bytes."""
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, self._model())
        before = path.read_bytes()
        bad = NgramModel(order=2, vocab_size=vocab_size, alpha=0.1,
                         counts={ctx: (np.array(ids), np.array([1]))})
        with pytest.raises(ValidationError, match=match):
            ct.save_ngram(path, bad)
        assert path.read_bytes() == before

    def test_rejects_contexts_out_of_order(self, tmp_path):
        row = (np.array([0]), np.array([1]))
        path = tmp_path / "lm.duss"
        ct.save_ngram(path, NgramModel(order=2, vocab_size=3, alpha=0.1,
                                       counts={(0,): row, (1,): row}))
        buf = path.read_bytes()
        start = ct._HEADERS[ct.MAGIC_DUSS].size + 16  # after alpha and the context count
        half = (len(buf) - start) // 2  # the two context records have equal size
        path.write_bytes(buf[:start] + buf[start + half:] + buf[start:start + half])
        with pytest.raises(DataError, match=r"context \(0,\) out of order"):
            ct.load_ngram(path)


@pytest.fixture(scope="module")
def saved_ngram(tmp_path_factory):
    rng = np.random.default_rng(4)
    seqs = [TokenSequence(tokens=rng.integers(0, 32, size=(1, 30)), vocab_size=32,
                          frame_rate=FRAME_RATE) for _ in range(3)]
    path = tmp_path_factory.mktemp("fuzz") / "lm.duss"
    ct.save_ngram(path, train_ngram(seqs, n=3, alpha=0.1))
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_ngram_file_loads_canonically_or_is_data_error(saved_ngram, data):
    """Byte mutations and truncations of a saved model either fail as
    DataError or load a model whose arrays hold at most twice the file's
    bytes (int64 ids for <u4 ones) and whose payload saves back unchanged."""
    path, original = saved_ngram
    buf = bytearray(original)
    edits = st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255))
    for pos, byte in data.draw(st.lists(edits, max_size=3), label="edits"):
        buf[pos] = byte
    cut = data.draw(st.just(len(buf)) | st.integers(0, len(buf)), label="length")
    buf = bytes(buf[:cut])
    path.write_bytes(buf)
    try:
        model = ct.load_ngram(path)
    except DataError:
        return
    held = sum(ids.nbytes + counts.nbytes for ids, counts in model.counts.values())
    assert held <= 2 * len(buf)
    ct.save_ngram(path, model)
    header = ct._HEADERS[ct.MAGIC_DUSS].size  # its frame-rate fields mean nothing here
    assert path.read_bytes()[header:] == buf[header:]


class TestAtomicWrite:
    def test_failed_save_keeps_previous_file(self, tmp_path):
        """A save that raises part-way through its payload leaves the previous
        file byte-identical, a new path absent, and no temporary file."""
        model = self_model()
        old, new = tmp_path / "old.duss", tmp_path / "new.duss"
        ct.save_ngram(old, model)
        before = old.read_bytes()
        # sorts after the valid contexts, and is no u32 token id
        model.counts[(2 ** 40,)] = (np.array([0]), np.array([1]))
        for path in (old, new):
            with pytest.raises(ValidationError, match="outside vocabulary"):
                ct.save_ngram(path, model)
        assert old.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["old.duss"]


class TestDispatch:
    def test_wrong_kind_rejected(self, tmp_path, tiny_codec):
        """Each loader accepts only its own kind code; a feature matrix (kind 1,
        no longer written) is a data error."""
        fm_path, codec_path, lm_path = (tmp_path / n for n in ("fm.duss", "c.duss", "lm.duss"))
        fm_path.write_bytes(ct._HEADERS[ct.MAGIC_DUSS].pack(b"DUSS", ct.VERSION, 1, 2, 2, 100, 3)
                            + bytes(32))
        ct.save_codec(codec_path, tiny_codec[0])
        ct.save_ngram(lm_path, self_model())
        with pytest.raises(DataError, match="found kind 1, expected 5$"):
            ct.load_codec(fm_path)
        with pytest.raises(DataError, match="found kind 6, expected 5$"):
            ct.load_codec(lm_path)
        with pytest.raises(DataError, match="found kind 1, expected 6$"):
            ct.load_ngram(fm_path)
        with pytest.raises(DataError, match="found kind 5, expected 6$"):
            ct.load_ngram(codec_path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.duss"
        header = ct._HEADERS[ct.MAGIC_DUSS].pack(b"DUSS", ct.VERSION, 42, 0, 0, 0, 1)
        path.write_bytes(header)
        with pytest.raises(DataError, match="kind 42"):
            ct.load_codec(path)


def self_model():
    seq = TokenSequence(tokens=np.array([[0, 1, 0]]), vocab_size=2,
                        frame_rate=FRAME_RATE)
    return train_ngram([seq], n=2, alpha=0.5)
