"""Sampling strategy checks: tempered softmax, top-k/nucleus filtering,
token draws, and the stop-terminated generation loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from duss import sampler as sp
from duss.errors import ValidationError


def random_probs(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


def oracle_mask(probs, k, p):
    """Independent filter: walk the descending order, keep while inside both
    the top-k budget and the still-unreached nucleus target."""
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    mask = np.zeros(len(probs), dtype=bool)
    cum = 0.0
    for rank, idx in enumerate(order):
        if rank >= k:
            break
        if cum >= p - sp.NUCLEUS_TOL:
            break
        mask[idx] = True
        cum += probs[idx]
    return mask


class TestSamplingParams:
    def test_valid(self):
        sp.SamplingParams(k=1, p=1.0, temperature=0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(k=0, p=0.5, temperature=1.0),
        dict(k=5, p=0.0, temperature=1.0),
        dict(k=5, p=1.5, temperature=1.0),
        dict(k=5, p=0.5, temperature=0.0),
        dict(k=5, p=0.5, temperature=-1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            sp.SamplingParams(**kwargs)


class TestApplyTemperature:
    def test_reference_values(self):
        probs = sp.apply_temperature(np.array([2.0, 1.0, 0.0]), 1.0)
        np.testing.assert_allclose(probs, [0.66524, 0.24473, 0.09003], atol=1e-5)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 3.0])
    def test_uniform_logits_stay_uniform(self, tau):
        probs = sp.apply_temperature(np.full(5, 1.7), tau)
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-15)

    def test_temperature_is_logit_scaling(self):
        a = sp.apply_temperature(np.array([2.0, 1.0, 0.0]), 0.25)
        b = sp.apply_temperature(np.array([8.0, 4.0, 0.0]), 1.0)
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           tau=st.floats(0.05, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, seed, tau):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=6)
        probs = sp.apply_temperature(logits, tau)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           tau=st.floats(0.05, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_argmax_invariance(self, seed, tau):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=6)
        probs = sp.apply_temperature(logits, tau)
        assert probs.argmax() == logits.argmax()

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_entropy_nondecreasing_in_temperature(self, seed):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=6)
        taus = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
        entropies = [stats.entropy(sp.apply_temperature(logits, t)) for t in taus]
        diffs = np.diff(entropies)
        assert np.all(diffs >= -1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValidationError):
            sp.apply_temperature(np.array([1.0, 0.0]), 0.0)

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(ValidationError):
            sp.apply_temperature(np.array([1.0, np.inf]), 1.0)

    def test_extreme_logits_stable(self):
        probs = sp.apply_temperature(np.array([1000.0, 0.0, -1000.0]), 1.0)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)


class TestFilterCandidates:
    def test_k_one_keeps_argmax(self):
        probs = np.array([0.2, 0.5, 0.3])
        mask = sp.filter_candidates(probs, 1, 1.0)
        assert mask.tolist() == [False, True, False]

    def test_small_p_keeps_argmax(self):
        probs = np.array([0.6, 0.3, 0.1])
        mask = sp.filter_candidates(probs, 3, 0.5)
        assert mask.tolist() == [True, False, False]

    def test_worked_example(self):
        """Nucleus stops once cumulative 0.8 is reached, inside the top 3."""
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        mask = sp.filter_candidates(probs, 3, 0.8)
        assert mask.tolist() == [True, True, False, False]

    def test_p_one_k_large_keeps_all(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        assert sp.filter_candidates(probs, 10, 1.0).all()

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(314)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            probs = random_probs(rng, n)
            k = int(rng.integers(1, n + 3))
            p = float(rng.uniform(0.05, 1.0))
            got = sp.filter_candidates(probs, k, p)
            want = oracle_mask(probs, k, p)
            np.testing.assert_array_equal(got, want)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           k1=st.integers(1, 6), k2=st.integers(1, 6),
           p1=st.floats(0.05, 1.0), p2=st.floats(0.05, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_nesting(self, seed, k1, k2, p1, p2):
        probs = random_probs(np.random.default_rng(seed), 6)
        ka, kb = sorted((k1, k2))
        pa, pb = sorted((p1, p2))
        small = sp.filter_candidates(probs, ka, pa)
        big = sp.filter_candidates(probs, kb, pb)
        assert np.all(big[small])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(1, 8), p=st.floats(0.05, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_nonempty_and_contains_argmax(self, seed, k, p):
        probs = random_probs(np.random.default_rng(seed), 6)
        mask = sp.filter_candidates(probs, k, p)
        assert mask.any()
        assert mask[probs.argmax()]

    def test_rejects_bad_k_and_p(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValidationError):
            sp.filter_candidates(probs, 0, 1.0)
        with pytest.raises(ValidationError):
            sp.filter_candidates(probs, 1, 0.0)


class TestMaskedDistribution:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(1, 8), p=st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_support_equals_mask_and_sums_to_one(self, seed, k, p):
        probs = random_probs(np.random.default_rng(seed), 6)
        mask = sp.filter_candidates(probs, k, p)
        dist = sp.masked_distribution(probs, mask)
        assert abs(dist.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(dist > 0, mask)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValidationError):
            sp.masked_distribution(np.array([0.5, 0.5]), np.zeros(2, dtype=bool))


class TestSampleToken:
    def test_tiny_temperature_is_argmax_without_warning(self):
        params = sp.SamplingParams(k=3, p=1.0, temperature=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            token = sp.sample_token(np.array([0.0, 5.0, 1.0]), params,
                                    np.random.default_rng(0))
        assert token == 1

    def test_k_one_is_argmax_for_any_state(self):
        logits = np.array([0.3, 2.0, -1.0, 0.9])
        params = sp.SamplingParams(k=1, p=1.0, temperature=1.0)
        for seed in range(30):
            assert sp.sample_token(logits, params, np.random.default_rng(seed)) == 1

    def test_full_support_matches_softmax(self):
        """100k draws over V=4 at k=V+1, p=1: chi-square against the exact
        tempered softmax distribution."""
        logits = np.array([1.0, 0.5, 0.0, -1.0])
        params = sp.SamplingParams(k=5, p=1.0, temperature=1.0)
        rng = np.random.default_rng(7)
        draws = sp.sample_token(logits, params, rng, size=100_000)
        counts = np.bincount(draws, minlength=4)
        expected = sp.apply_temperature(logits, 1.0) * 100_000
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_tempered_full_support_matches_softmax(self):
        logits = np.array([1.0, 0.5, 0.0, -1.0])
        params = sp.SamplingParams(k=5, p=1.0, temperature=0.7)
        rng = np.random.default_rng(11)
        draws = sp.sample_token(logits, params, rng, size=100_000)
        counts = np.bincount(draws, minlength=4)
        expected = sp.apply_temperature(logits, 0.7) * 100_000
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_top_two_renormalized(self):
        """k=2 removes tokens 2 and 3 entirely; the 0:1 frequency ratio
        matches the softmax ratio exp(1 - 0.5)."""
        logits = np.array([1.0, 0.5, 0.0, -1.0])
        params = sp.SamplingParams(k=2, p=1.0, temperature=1.0)
        rng = np.random.default_rng(99)
        draws = sp.sample_token(logits, params, rng, size=100_000)
        counts = np.bincount(draws, minlength=4)
        assert counts[2] == 0 and counts[3] == 0
        assert counts[0] / counts[1] == pytest.approx(np.exp(0.5), rel=0.03)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(1, 6), p=st.floats(0.05, 1.0),
           tau=st.floats(0.1, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_draw_always_in_mask(self, seed, k, p, tau):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=2.0, size=5)
        params = sp.SamplingParams(k=k, p=p, temperature=tau)
        mask = sp.filter_candidates(sp.apply_temperature(logits, tau), k, p)
        token = sp.sample_token(logits, params, np.random.default_rng(seed + 1))
        assert mask[token]

    def test_batch_equals_sequential(self):
        logits = np.array([1.0, 0.5, 0.0, -1.0, 2.0])
        params = sp.SamplingParams(k=4, p=0.9, temperature=0.8)
        batch = sp.sample_token(logits, params, np.random.default_rng(5), size=200)
        rng = np.random.default_rng(5)
        sequential = [sp.sample_token(logits, params, rng) for _ in range(200)]
        np.testing.assert_array_equal(batch, sequential)


class RollModel:
    """Logit table whose rows rotate with the last context token."""

    base = np.array([0.5, 1.2, -0.3, 0.8, 0.1, -1.0, -2.0])

    def __call__(self, context):
        if context:
            return np.roll(self.base, context[-1] + 1)
        return self.base.copy()


class TestGenerate:
    def test_immediate_stop_gives_empty_natural(self):
        def model(context):
            return np.array([-50.0, -50.0, -50.0, 0.0])

        res = sp.generate(model, sp.SamplingParams(k=1, p=1.0, temperature=1.0),
                          max_len=10, rng=np.random.default_rng(0))
        assert res.natural
        assert res.sequence.num_frames == 0
        assert res.sequence.vocab_size == 3

    def test_deterministic_script(self):
        """A model that walks a, b, stop under argmax decoding yields [a, b]."""
        script = {0: 2, 1: 4}

        def model(context):
            logits = np.full(6, -10.0)
            logits[script.get(len(context), 5)] = 10.0
            return logits

        res = sp.generate(model, sp.SamplingParams(k=1, p=1.0, temperature=1.0),
                          max_len=50, rng=np.random.default_rng(0))
        assert res.sequence.tokens[0].tolist() == [2, 4]
        assert res.natural

    def test_truncation_flag(self):
        def model(context):
            return np.array([5.0, 0.0, -1e9])

        res = sp.generate(model, sp.SamplingParams(k=1, p=1.0, temperature=1.0),
                          max_len=7, rng=np.random.default_rng(0))
        assert not res.natural
        assert res.sequence.num_frames == 7

    def test_golden_sequence(self):
        """Frozen reference: seed 2024 with the rolling table model."""
        res = sp.generate(RollModel(), sp.SamplingParams(k=3, p=0.9, temperature=0.8),
                          max_len=24, rng=np.random.default_rng(2024))
        assert res.sequence.tokens[0].tolist() == [1, 3, 4]
        assert res.natural

    def test_runs_are_bit_identical(self):
        params = sp.SamplingParams(k=3, p=0.9, temperature=0.8)
        a = sp.generate(RollModel(), params, 24, np.random.default_rng(123))
        b = sp.generate(RollModel(), params, 24, np.random.default_rng(123))
        np.testing.assert_array_equal(a.sequence.tokens, b.sequence.tokens)
        assert a.natural == b.natural

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stream_never_contains_stop(self, seed):
        res = sp.generate(RollModel(), sp.SamplingParams(k=5, p=1.0, temperature=1.5),
                          max_len=30, rng=np.random.default_rng(seed))
        seq = res.sequence
        assert seq.vocab_size == 6
        if seq.num_frames:
            assert seq.tokens.max() < 6

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValidationError):
            sp.generate(RollModel(), sp.SamplingParams(k=1, p=1.0, temperature=1.0),
                        max_len=0, rng=np.random.default_rng(0))

    def test_custom_frame_rate_attached(self):
        from fractions import Fraction
        res = sp.generate(RollModel(), sp.SamplingParams(k=1, p=1.0, temperature=1.0),
                          max_len=3, rng=np.random.default_rng(0),
                          frame_rate=Fraction(50))
        assert res.sequence.frame_rate == Fraction(50)
