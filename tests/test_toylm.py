"""Order-n Markov model: counting, smoothing, back-off, and the logit
contract the sampler relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duss import toylm
from duss.codec import TokenSequence
from duss.errors import ValidationError
from duss.sampler import SamplingParams, generate

from conftest import FRAME_RATE


def make_seq(tokens, vocab_size):
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return TokenSequence(tokens=arr, vocab_size=vocab_size, frame_rate=FRAME_RATE)


class TestTrainNgram:
    def test_single_token_unigram_counts(self):
        model = toylm.train_ngram([make_seq([3], 6)], n=1, alpha=0.1)
        assert model.vocab_size == 7
        assert model.stop_id == 6
        ids, counts = model.counts[()]
        assert ids.dtype == counts.dtype == np.int64
        assert ids.tolist() == [3, 6]
        assert counts.tolist() == [1, 1]

    def test_empty_corpus_is_uniform(self):
        """A model with no counts (nothing trained) gives uniform logits."""
        model = toylm.NgramModel(order=2, vocab_size=5, alpha=0.5)
        for ctx in ([], [0], [4, 2]):
            np.testing.assert_allclose(toylm.logits(model, ctx),
                                       np.full(5, -np.log(5)), atol=1e-15)

    def test_empty_corpus_needs_vocab(self):
        """The vocabulary comes from the first sequence, so there must be one."""
        with pytest.raises(ValidationError, match="at least one token sequence"):
            toylm.train_ngram([], n=2, alpha=0.5)

    def test_alternating_pair_becomes_deterministic(self):
        """[0,1,0,1,...] with n=2: P(1 | 0) tends to 1 as alpha shrinks."""
        seq = make_seq([0, 1] * 8, 2)
        model = toylm.train_ngram([seq], n=2, alpha=1e-9)
        probs = np.exp(toylm.logits(model, [0]))
        assert probs[1] > 1.0 - 1e-6

    def test_two_stage_sequence_counts_its_stage_zero_stream(self):
        """Generation renders every id through stage 0, so a two-stage sequence
        trains the counts of its stage-0 stream, with one stop per sequence."""
        two_stage = toylm.train_ngram([make_seq([[1, 2], [3, 4]], 6)] * 2, n=2, alpha=0.1)
        stage_zero = toylm.train_ngram([make_seq([1, 2], 6)] * 2, n=2, alpha=0.1)
        assert two_stage.counts.keys() == stage_zero.counts.keys()
        for ctx, (ids, counts) in stage_zero.counts.items():
            np.testing.assert_array_equal(two_stage.counts[ctx][0], ids)
            np.testing.assert_array_equal(two_stage.counts[ctx][1], counts)
        ids, counts = two_stage.counts[()]
        assert dict(zip(ids.tolist(), counts.tolist())) == {1: 2, 2: 2, 6: 2}

    def test_sparse_rows_hold_only_seen_tokens(self):
        """A large vocabulary costs nothing until its tokens are seen: each
        stored count takes one int64 id and one int64 count."""
        rng = np.random.default_rng(2)
        model = toylm.train_ngram([make_seq(rng.integers(0, 2 ** 16, size=100), 2 ** 16)],
                                  n=3, alpha=0.1)
        stored = sum(len(ids) for ids, _ in model.counts.values())
        nbytes = sum(ids.nbytes + counts.nbytes for ids, counts in model.counts.values())
        assert nbytes <= 16 * stored

    def test_contexts_shorter_than_order(self):
        model = toylm.train_ngram([make_seq([0, 1, 2], 4)], n=3, alpha=0.1)
        assert all(len(ctx) < 3 for ctx in model.counts)
        assert (0, 1) in model.counts
        assert (1, 2) in model.counts

    def test_vocab_mismatch_rejected(self):
        a = make_seq([0, 1], 4)
        b = make_seq([0, 1], 5)
        with pytest.raises(ValidationError, match="mismatch"):
            toylm.train_ngram([a, b], n=2, alpha=0.1)

    def test_order_independent(self):
        rng = np.random.default_rng(8)
        seqs = [make_seq(rng.integers(0, 5, size=rng.integers(1, 12)), 5)
                for _ in range(6)]
        fwd = toylm.train_ngram(seqs, n=3, alpha=0.1)
        rev = toylm.train_ngram(seqs[::-1], n=3, alpha=0.1)
        assert set(fwd.counts) == set(rev.counts)
        for ctx, row in fwd.counts.items():
            np.testing.assert_array_equal(row, rev.counts[ctx])

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            toylm.NgramModel(order=0, vocab_size=4, alpha=0.1)
        with pytest.raises(ValidationError):
            toylm.NgramModel(order=2, vocab_size=1, alpha=0.1)
        with pytest.raises(ValidationError):
            toylm.NgramModel(order=2, vocab_size=4, alpha=0.0)
        with pytest.raises(ValidationError, match="finite"):  # every logit would be NaN
            toylm.NgramModel(order=2, vocab_size=4, alpha=np.inf)


class TestLogits:
    def test_repeated_token_dominates(self):
        """Corpus 5,5,5,...: after context [5] the argmax is 5 again."""
        model = toylm.train_ngram([make_seq([5] * 20, 6)], n=2, alpha=0.1)
        assert toylm.logits(model, [5]).argmax() == 5

    def test_longest_suffix_wins(self):
        # bigram context (0,) says 1; trigram context (2, 0) says 3
        seq = make_seq([2, 0, 3, 0, 1, 0, 1], 4)
        model = toylm.train_ngram([seq], n=3, alpha=1e-6)
        assert toylm.logits(model, [2, 0]).argmax() == 3
        assert toylm.logits(model, [1, 0]).argmax() == 1

    def test_backoff_to_shorter_suffix(self):
        model = toylm.train_ngram([make_seq([0, 1, 0, 1], 2)], n=3, alpha=0.1)
        # context (2,... ) never stored at any length > 0 -> falls back
        got = toylm.logits(model, [2, 2, 0])
        np.testing.assert_array_equal(got, toylm.logits(model, [0]))

    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_exp_logits_is_distribution(self, seed, n):
        rng = np.random.default_rng(seed)
        seqs = [make_seq(rng.integers(0, 6, size=rng.integers(1, 15)), 6)
                for _ in range(3)]
        model = toylm.train_ngram(seqs, n=n, alpha=0.3)
        for _ in range(10):
            ctx = rng.integers(0, 7, size=rng.integers(0, 5)).tolist()
            probs = np.exp(toylm.logits(model, ctx))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0)

    def test_smoothed_values_match_count_arithmetic(self):
        model = toylm.train_ngram([make_seq([3], 6)], n=1, alpha=0.1)
        probs = np.exp(toylm.logits(model, []))
        denom = 2 + 0.1 * 7
        assert probs[3] == pytest.approx(1.1 / denom)
        assert probs[0] == pytest.approx(0.1 / denom)

    def test_rejects_out_of_vocab_context(self):
        model = toylm.train_ngram([make_seq([0, 1], 3)], n=2, alpha=0.1)
        with pytest.raises(ValidationError):
            toylm.logits(model, [4])


class TestSamplerIntegration:
    def test_generate_from_trained_model(self):
        rng = np.random.default_rng(17)
        seqs = [make_seq(rng.integers(0, 8, size=12), 8) for _ in range(5)]
        model = toylm.train_ngram(seqs, n=2, alpha=0.2)
        res = generate(model, SamplingParams(k=4, p=0.95, temperature=1.0),
                       max_len=40, rng=np.random.default_rng(3))
        assert res.sequence.vocab_size == 8
        if res.sequence.num_frames:
            assert res.sequence.tokens.max() < 8

    def test_argmax_decoding_reproduces_loop(self):
        model = toylm.train_ngram([make_seq([0, 1] * 10, 2)], n=2, alpha=1e-9)
        res = generate(model, SamplingParams(k=1, p=1.0, temperature=1.0),
                       max_len=9, rng=np.random.default_rng(0))
        assert res.sequence.tokens[0].tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
