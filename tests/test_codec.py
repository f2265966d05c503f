"""Quantizer checks: nearest-code lookup and its memory, the error bound the
k-means++ seeding filter rests on, staged k-means training and its
independence of the BLAS thread count, encode/decode round trips, and the
per-stage quantization report."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from duss import codec as cd
from duss import dsp
from duss.errors import ValidationError

from conftest import FRAME_RATE, make_clustered_features, make_feature_matrix


def brute_force_nearest(vectors, frames):
    """Direct distance matrix with first-occurrence argmin."""
    d = ((frames[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


class TestNearestCode:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(6, 3))
        frames = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(cd.nearest_code(vectors, frames),
                                      brute_force_nearest(vectors, frames))

    def test_tie_breaks_to_lowest_index(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        frames = np.array([[1.0, 0.0]])
        assert cd.nearest_code(vectors, frames)[0] == 0

    def test_equidistant_frame_takes_lower_index(self):
        """A frame halfway between codes 2 and 7 encodes to 2."""
        vectors = np.zeros((8, 1))
        vectors[:, 0] = np.arange(8) * 10.0
        vectors[7, 0] = 30.0  # codes 2 (=20) and 7 (=30) straddle 25
        frames = np.array([[25.0]])
        assert cd.nearest_code(vectors, frames)[0] == 2

    def test_scores_hold_one_frames_by_codes_matrix(self):
        """At vocoder size (2680 frames of 80 mels, 1024 codes) the scores are
        built in place: the peak stays below 1.25 N x V float64 matrices."""
        rng = np.random.default_rng(0)
        frames, vectors = rng.normal(size=(2680, 80)), rng.normal(size=(1024, 80))
        tracemalloc.start()
        try:
            cd.nearest_code(vectors, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2680 * 1024 * 8


@st.composite
def rows_and_centre(draw):
    """Rows and a centre on one drawn scale, from 1e100 down to where squares
    underflow into subnormals; the last row lies near the centre, where the
    expansion cancels."""
    dim = draw(st.integers(1, 100))
    scale = draw(st.sampled_from([1e100, 1e20, 1.0, 1e-20, 1e-155, 1e-160, 1e-165]))
    unit = st.floats(-1.0, 1.0)
    centre = scale * draw(hnp.arrays(np.float64, dim, elements=unit))
    rows = scale * draw(hnp.arrays(np.float64, (draw(st.integers(0, 6)), dim), elements=unit))
    near = centre + scale * draw(st.sampled_from([1e-8, 1e-3, 1.0])) * draw(
        hnp.arrays(np.float64, dim, elements=unit))
    return np.vstack([rows, near]), centre


class TestSeedingBound:
    @given(rows_and_centre())
    @settings(max_examples=200, deadline=None)
    def test_expansion_is_within_slack_of_exact_distance(self, case):
        """kmeans_pp_init skips a row only when ||x||^2 + ||c||^2 - 2 x.c
        exceeds d2 by more than slack * (||x||^2 + ||c||^2 + tiny); that is
        safe because the expansion is never further than this from the exact
        sum of squared differences."""
        frames, centre = case
        slack = 4 * (frames.shape[1] + 2) * np.finfo(float).eps
        sq, sq_c = np.sum(frames * frames, axis=1), np.sum(centre * centre)
        expanded = sq + sq_c - 2.0 * (frames @ centre)
        exact = np.sum((frames - centre) ** 2, axis=1)
        assert np.all(np.abs(expanded - exact)
                      <= slack * (sq + sq_c + np.finfo(float).tiny))


TRAIN_AND_SAVE = """
import sys
import numpy as np
from duss import codec, containers, dsp
rng = np.random.default_rng(0)
fm = dsp.FeatureMatrix(rng.normal(size=(1500, 40)), 100, dsp.FeatureKind.MEL_SPECTROGRAM)
cfg = codec.CodecConfig(codebook_size=256, num_quantizers=2, feature_dim=40, kmeans_iters=5)
containers.save_codec(sys.argv[1], codec.train_codebooks(fm, cfg))
"""


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    """train_codebooks on fixed features writes the same codec under one and
    two OpenBLAS threads."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    written = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.codec"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, str(path)], env=env, check=True)
        written.append(path.read_bytes())
    assert written[0] == written[1]


class TestTraining:
    def test_exact_recovery_of_distinct_frames(self):
        """V distinct repeated frame vectors, Q=1: zero training error and
        the codebook equals those vectors up to permutation."""
        rng = np.random.default_rng(0)
        base = rng.integers(-8, 8, size=(8, 4)).astype(np.float64) / 4.0
        frames = np.repeat(base, 16, axis=0)
        from duss.dsp import FeatureKind, FeatureMatrix
        fm = FeatureMatrix(frames, FRAME_RATE, FeatureKind.MEL_SPECTROGRAM)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=1, feature_dim=4,
                             kmeans_iters=25, seed=1)
        codec = cd.train_codebooks(fm, cfg)
        assert codec.stage_train_mse[-1] == 0.0
        got = sorted(map(tuple, codec.stages[0].vectors))
        want = sorted(map(tuple, base))
        assert got == want

    def test_residual_monotonicity(self):
        rng = np.random.default_rng(10)
        fm = make_feature_matrix(rng, 200, 6)
        cfg = cd.CodecConfig(codebook_size=16, num_quantizers=3, feature_dim=6,
                             kmeans_iters=10, seed=2)
        codec = cd.train_codebooks(fm, cfg)
        mse = codec.stage_train_mse
        assert mse[1] <= mse[0] and mse[2] <= mse[1]

    def test_matches_exhaustive_lloyd_oracle(self):
        """V=4, D=2, 64 frames: same assignments as a plain reference
        implementation of Lloyd's algorithm started from the same centers."""
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(64, 2))
        init = cd.kmeans_pp_init(frames, 4, np.random.default_rng(5))

        centers = init.copy()
        assign = brute_force_nearest(centers, frames)
        for _ in range(50):
            for j in range(4):
                members = frames[assign == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
                else:
                    errors = ((frames - centers[assign]) ** 2).sum(axis=1)
                    centers[j] = frames[np.argmax(errors)]
            new_assign = brute_force_nearest(centers, frames)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign

        got_centers, got_assign, _ = cd.lloyd_kmeans(frames, init, 50)
        np.testing.assert_array_equal(got_assign, assign)
        np.testing.assert_allclose(got_centers, centers, atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        fm = make_feature_matrix(rng, 100, 5)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=2, feature_dim=5,
                             kmeans_iters=10, seed=9)
        a = cd.train_codebooks(fm, cfg)
        b = cd.train_codebooks(fm, cfg)
        for sa, sb in zip(a.stages, b.stages):
            np.testing.assert_array_equal(sa.vectors, sb.vectors)
            np.testing.assert_array_equal(sa.usage_counts, sb.usage_counts)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(3)
        fm = make_feature_matrix(rng, 100, 5)
        mk = lambda s: cd.train_codebooks(
            fm, cd.CodecConfig(codebook_size=8, num_quantizers=1, feature_dim=5,
                               kmeans_iters=3, seed=s))
        assert not np.array_equal(mk(0).stages[0].vectors, mk(1).stages[0].vectors)

    def test_usage_counts_sum_to_frames(self):
        rng = np.random.default_rng(7)
        fm = make_feature_matrix(rng, 150, 4)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=2, feature_dim=4,
                             kmeans_iters=10, seed=0)
        codec = cd.train_codebooks(fm, cfg)
        for stage in codec.stages:
            assert stage.usage_counts.sum() == 150

    def test_insufficient_frames_rejected(self):
        rng = np.random.default_rng(1)
        fm = make_feature_matrix(rng, 7, 3)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=1, feature_dim=3)
        with pytest.raises(ValidationError, match="8"):
            cd.train_codebooks(fm, cfg)

    def test_larger_codebook_never_hurts(self):
        rng = np.random.default_rng(5)
        fm = make_feature_matrix(rng, 600, 8)
        results = {}
        for v in (16, 32, 64):
            cfg = cd.CodecConfig(codebook_size=v, num_quantizers=1, feature_dim=8,
                                 kmeans_iters=8, seed=0)
            results[v] = cd.train_codebooks(fm, cfg).stage_train_mse[-1]
        assert results[64] <= results[32] <= results[16]

    def test_large_codebook_ladder(self):
        """Training MSE is non-increasing across the 256/512/1024 ladder."""
        rng = np.random.default_rng(5)
        fm = make_feature_matrix(rng, 2000, 16)
        results = {}
        for v in (256, 512, 1024):
            cfg = cd.CodecConfig(codebook_size=v, num_quantizers=1,
                                 feature_dim=16, kmeans_iters=6, seed=0)
            results[v] = cd.train_codebooks(fm, cfg).stage_train_mse[-1]
        assert results[1024] <= results[512] <= results[256]


class TestEncodeDecode:
    def test_frame_on_codebook_vector_is_exact(self, tiny_codec):
        """Frames that are code vectors encode to their indices and decode
        back bit for bit."""
        codec, _ = tiny_codec
        from duss.dsp import FeatureKind, FeatureMatrix
        frames = codec.stages[0].vectors[[1, 3, 4, 7]].copy()
        fm = FeatureMatrix(frames, FRAME_RATE, FeatureKind.MEL_SPECTROGRAM)
        single = cd.RvqCodec(
            config=cd.CodecConfig(codebook_size=8, num_quantizers=1,
                                  feature_dim=8),
            stages=[codec.stages[0]])
        seq = cd.encode(single, fm)
        np.testing.assert_array_equal(seq.tokens[0], [1, 3, 4, 7])
        np.testing.assert_array_equal(cd.decode(single, seq).data, frames)

    def test_round_trip_is_token_fixed_point(self, tiny_codec):
        codec, fm = tiny_codec
        seq = cd.encode(codec, fm)
        again = cd.encode(codec, cd.decode(codec, seq))
        np.testing.assert_array_equal(seq.tokens, again.tokens)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_clustered_two_stage(self, seed):
        """encode(decode(encode(x))) == encode(x) for clustered frames.

        Holds when the per-cluster spread sits well below the spacing of
        stage-1 cells; isotropic noise with V comparable to the frame count
        can violate it, so the property is stated for the clustered regime."""
        rng = np.random.default_rng(seed)
        fm = make_clustered_features(rng, 256, 8)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=2, feature_dim=8,
                             kmeans_iters=20, seed=seed)
        codec = cd.train_codebooks(fm, cfg)
        seq = cd.encode(codec, fm)
        again = cd.encode(codec, cd.decode(codec, seq))
        np.testing.assert_array_equal(seq.tokens, again.tokens)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_single_stage_any_data(self, seed):
        """With one stage the fixed point needs no structure: decoding lands
        exactly on a codebook vector, which re-encodes to itself."""
        rng = np.random.default_rng(seed)
        fm = make_feature_matrix(rng, 128, 8)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=1, feature_dim=8,
                             kmeans_iters=10, seed=seed)
        codec = cd.train_codebooks(fm, cfg)
        seq = cd.encode(codec, fm)
        again = cd.encode(codec, cd.decode(codec, seq))
        np.testing.assert_array_equal(seq.tokens, again.tokens)

    def test_tokens_below_vocab(self, tiny_codec):
        codec, fm = tiny_codec
        seq = cd.encode(codec, fm)
        assert seq.tokens.max() < codec.config.codebook_size
        assert seq.tokens.min() >= 0
        assert seq.num_frames == fm.num_frames

    def test_decode_is_stagewise_sum(self, tiny_codec):
        codec, _ = tiny_codec
        seq = cd.TokenSequence(tokens=np.array([[2], [5]]), vocab_size=8,
                               frame_rate=FRAME_RATE)
        rec = cd.decode(codec, seq)
        expected = codec.stages[0].vectors[2] + codec.stages[1].vectors[5]
        np.testing.assert_allclose(rec.data[0], expected, atol=1e-12)

    def test_two_stages_beat_best_single_stage(self):
        rng = np.random.default_rng(12)
        fm = make_feature_matrix(rng, 300, 6)
        cfg2 = cd.CodecConfig(codebook_size=16, num_quantizers=2, feature_dim=6,
                              kmeans_iters=10, seed=1)
        cfg1 = cd.CodecConfig(codebook_size=16, num_quantizers=1, feature_dim=6,
                              kmeans_iters=10, seed=1)
        two = cd.train_codebooks(fm, cfg2)
        one = cd.train_codebooks(fm, cfg1)

        def recon_mse(codec):
            rec = cd.decode(codec, cd.encode(codec, fm))
            return float(np.mean((rec.data - fm.data) ** 2))

        assert recon_mse(two) <= recon_mse(one)

    def test_decoded_values_finite(self, tiny_codec):
        codec, fm = tiny_codec
        rec = cd.decode(codec, cd.encode(codec, fm))
        assert np.all(np.isfinite(rec.data))
        assert rec.kind == cd.FeatureKind.MEL_SPECTROGRAM

    def test_dimension_mismatch_rejected(self, tiny_codec):
        codec, _ = tiny_codec
        rng = np.random.default_rng(0)
        wrong = make_feature_matrix(rng, 10, 5)
        with pytest.raises(ValidationError):
            cd.encode(codec, wrong)

    def test_stage_mismatch_rejected(self, tiny_codec):
        codec, _ = tiny_codec
        seq = cd.TokenSequence(tokens=np.zeros((3, 4), dtype=np.int64),
                               vocab_size=8, frame_rate=FRAME_RATE)
        with pytest.raises(ValidationError, match="token stages 3 exceed codec stages 2"):
            cd.decode(codec, seq)

    def test_vocab_mismatch_rejected(self, tiny_codec):
        codec, _ = tiny_codec
        seq = cd.TokenSequence(tokens=np.zeros((1, 4), dtype=np.int64),
                               vocab_size=9, frame_rate=FRAME_RATE)
        with pytest.raises(ValidationError, match="token vocab 9 != codebook size 8"):
            cd.decode(codec, seq)

    def test_decode_partial_matches_decode_when_full(self, tiny_codec):
        """Decoding the first stage and adding the second stage's vectors gives
        the decode of the full sequence."""
        codec, fm = tiny_codec
        seq = cd.encode(codec, fm)
        head = cd.TokenSequence(tokens=seq.tokens[:1], vocab_size=8,
                                frame_rate=FRAME_RATE)
        np.testing.assert_array_equal(
            cd.decode(codec, seq).data,
            cd.decode(codec, head).data + codec.stages[1].vectors[seq.tokens[1]])

    def test_decode_partial_single_stream(self, tiny_codec):
        codec, fm = tiny_codec
        seq = cd.encode(codec, fm)
        head = cd.TokenSequence(tokens=seq.tokens[:1], vocab_size=8,
                                frame_rate=FRAME_RATE)
        rec = cd.decode(codec, head)
        np.testing.assert_allclose(rec.data,
                                   codec.stages[0].vectors[seq.tokens[0]],
                                   atol=1e-12)

    def test_empty_features_round_trip(self, tiny_codec):
        codec, _ = tiny_codec
        from duss.dsp import FeatureKind, FeatureMatrix
        empty = FeatureMatrix(np.zeros((0, 8)), FRAME_RATE,
                              FeatureKind.MEL_SPECTROGRAM)
        seq = cd.encode(codec, empty)
        assert seq.tokens.shape == (2, 0)
        assert cd.decode(codec, seq).num_frames == 0


def per_stage_mse(codec, features):
    """Mean squared residual left after each stage prefix of the encoding."""
    seq = cd.encode(codec, features)
    out = []
    for s in range(1, seq.num_stages + 1):
        prefix = cd.TokenSequence(tokens=seq.tokens[:s],
                                  vocab_size=seq.vocab_size,
                                  frame_rate=seq.frame_rate)
        residual = features.data - cd.decode(codec, prefix).data
        out.append(float(np.mean(np.sum(residual * residual, axis=1))))
    return tuple(out)


class TestQuantizationReport:
    def test_frames_on_codebook_vectors_report_zero(self, tiny_codec):
        codec, _ = tiny_codec
        from duss.dsp import FeatureKind, FeatureMatrix
        single = cd.RvqCodec(
            config=cd.CodecConfig(codebook_size=8, num_quantizers=1,
                                  feature_dim=8),
            stages=[codec.stages[0]])
        exact = FeatureMatrix(codec.stages[0].vectors[[1, 4, 7]].copy(),
                              FRAME_RATE, FeatureKind.MEL_SPECTROGRAM)
        assert per_stage_mse(single, exact) == pytest.approx((0.0,), abs=1e-20)


class TestTokenSequence:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            cd.TokenSequence(tokens=np.array([[9]]), vocab_size=8,
                             frame_rate=FRAME_RATE)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            cd.TokenSequence(tokens=np.array([[-1]]), vocab_size=8,
                             frame_rate=FRAME_RATE)

    def test_stop_id_must_be_vocab_size(self):
        """The stop id of generation is V by convention, so no sequence holds it."""
        with pytest.raises(ValidationError, match=r"\[0, 8\)"):
            cd.TokenSequence(tokens=np.array([[0, 8]]), vocab_size=8,
                             frame_rate=FRAME_RATE)

    def test_shape_accessors(self):
        seq = cd.TokenSequence(tokens=np.zeros((3, 7), dtype=np.int64),
                               vocab_size=4, frame_rate=FRAME_RATE)
        assert seq.num_stages == 3
        assert seq.num_frames == 7


class TestCodecConfig:
    def test_frame_rate(self):
        cfg = cd.CodecConfig()
        assert cfg.frame_rate == Fraction(16000, 480) == Fraction(100, 3)

    def test_rejects_tiny_codebook(self):
        with pytest.raises(ValidationError):
            cd.CodecConfig(codebook_size=1)

    def test_rejects_hop_beyond_frame_len_and_unknown_window(self):
        with pytest.raises(ValidationError, match="hop=4096, frame_len=2048"):
            cd.CodecConfig(hop=4096)
        with pytest.raises(ValidationError, match="unknown window 'bogus'"):
            cd.CodecConfig(window="bogus")

    def test_analysis_holds_the_codec_settings(self):
        cfg = cd.CodecConfig(hop=240, sample_rate=24000, frame_len=1024, window="hamming",
                             feature_dim=40)
        assert cfg.analysis == dsp.AnalysisConfig(sample_rate=24000, frame_len=1024, hop=240,
                                                  window="hamming", n_mels=40)
        assert cfg.analysis.frame_rate == cfg.frame_rate
