"""Objective metrics: bitrate arithmetic, DTW alignment against a path
enumerator, mel-cepstral distortion, log-F0 RMSE, and the report `duss evaluate`
builds from them."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duss import cli
from duss import metrics as mt
from duss.codec import TokenSequence
from duss.corpus import CorpusManifest, UtteranceEntry, save_manifest
from duss.dsp import F0Track, FeatureKind, FeatureMatrix, Waveform, write_wav
from duss.errors import DataError, ValidationError

from conftest import FRAME_RATE, SR


def make_seq(tokens, vocab_size):
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return TokenSequence(tokens=arr, vocab_size=vocab_size, frame_rate=FRAME_RATE)


def enumerate_paths(m, n):
    """Yield every monotone path from (0,0) to (m-1,n-1)."""
    def walk(i, j, acc):
        if i == m - 1 and j == n - 1:
            yield acc
            return
        if i + 1 < m:
            yield from walk(i + 1, j, acc + [(i + 1, j)])
        if j + 1 < n:
            yield from walk(i, j + 1, acc + [(i, j + 1)])
        if i + 1 < m and j + 1 < n:
            yield from walk(i + 1, j + 1, acc + [(i + 1, j + 1)])

    yield from walk(0, 0, [(0, 0)])


def enumerated_min_cost(local):
    best = math.inf
    for path in enumerate_paths(*local.shape):
        cost = sum(local[i, j] for i, j in path)
        best = min(best, cost)
    return best


class TestNominalBitrate:
    def test_two_stage_1024_at_low_rate(self):
        got = mt.nominal_bitrate(1024, 2, Fraction(100, 3))
        assert got == pytest.approx(666.6667, abs=5e-3)

    def test_two_stage_1024_at_50hz(self):
        assert mt.nominal_bitrate(1024, 2, 50) == pytest.approx(1000.0)

    def test_single_stage_ladder(self):
        rate = Fraction(100, 3)
        v1024 = mt.nominal_bitrate(1024, 1, rate)
        v512 = mt.nominal_bitrate(512, 1, rate)
        v256 = mt.nominal_bitrate(256, 1, rate)
        assert v1024 == pytest.approx(1000.0 / 3.0)
        assert v512 == pytest.approx(300.0)
        assert v256 == pytest.approx(800.0 / 3.0)
        assert v1024 > v512 > v256

    @given(v=st.integers(2, 2048), q=st.integers(1, 8),
           rate=st.fractions(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_each_argument(self, v, q, rate):
        base = mt.nominal_bitrate(v, q, rate)
        assert mt.nominal_bitrate(v + 1, q, rate) > base
        assert mt.nominal_bitrate(v, q + 1, rate) > base
        assert mt.nominal_bitrate(v, q, rate + 1) > base

    def test_rejects_degenerate_args(self):
        with pytest.raises(ValidationError):
            mt.nominal_bitrate(1, 1, 50)
        with pytest.raises(ValidationError):
            mt.nominal_bitrate(4, 0, 50)
        with pytest.raises(ValidationError):
            mt.nominal_bitrate(4, 1, 0)


class TestMeasuredBitrate:
    def test_reduces_to_nominal_when_saturated(self):
        """All V codes used and T = frame_rate * duration: the measured and
        nominal formulas coincide."""
        rate = 50
        duration = 0.5
        t = int(rate * duration)
        tokens = np.tile(np.arange(4), (2, t // 4 + 1))[:, :t]
        seq = TokenSequence(tokens=tokens, vocab_size=4, frame_rate=Fraction(rate))
        got = mt.measured_bitrate([seq], [duration])
        assert got == pytest.approx(mt.nominal_bitrate(4, 2, rate), abs=1e-12)

    def test_two_codes_of_large_codebook(self):
        seq = make_seq([0, 513] * 10, 1024)
        got = mt.measured_bitrate([seq], [2.0])
        assert got == pytest.approx(1 * 20 / 2.0)

    def test_hand_computed_corpus(self):
        a = make_seq([[0, 1, 2], [3, 4, 5]], 16)   # T=3, Q=2
        b = make_seq([6, 7], 16)                   # T=2, Q=1
        # corpus-level distinct codes: 8 -> log2 = 3 bits/token
        expected = (3 * 2 * 3 + 2 * 1 * 3) / (1.5 + 0.5)
        got = mt.measured_bitrate([a, b], [1.5, 0.5])
        assert got == pytest.approx(expected, abs=1e-9)

    def test_single_code_floored_at_two(self):
        seq = make_seq([5] * 8, 16)
        got = mt.measured_bitrate([seq], [1.0])
        assert got == pytest.approx(8 * 1 * 1 / 1.0)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_nominal(self, seed):
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 64))
        q = int(rng.integers(1, 4))
        rate = Fraction(50)
        seqs, durations = [], []
        for _ in range(rng.integers(1, 5)):
            t = int(rng.integers(1, 30))
            tokens = rng.integers(0, v, size=(q, t))
            seqs.append(TokenSequence(tokens=tokens, vocab_size=v,
                                      frame_rate=rate))
            durations.append(t / float(rate))
        assert mt.measured_bitrate(seqs, durations) <= \
            mt.nominal_bitrate(v, q, rate) + 1e-9

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValidationError):
            mt.measured_bitrate([], [])
        with pytest.raises(ValidationError):
            mt.measured_bitrate([make_seq([0], 4)], [1.0, 2.0])
        with pytest.raises(ValidationError):
            mt.measured_bitrate([make_seq([0], 4)], [0.0])


def euclidean(x, y):
    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)


class TestDtwAlign:
    def test_identical_inputs_diagonal_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        pairs, cost = mt._dtw_from_cost(euclidean(x, x))
        assert cost == 0.0
        np.testing.assert_array_equal(pairs, np.stack([np.arange(5), np.arange(5)], axis=1))

    def test_4x3_matches_enumeration(self):
        rng = np.random.default_rng(42)
        local = euclidean(rng.normal(size=(4, 2)), rng.normal(size=(3, 2)))
        _, cost = mt._dtw_from_cost(local)
        assert cost == pytest.approx(enumerated_min_cost(local), abs=1e-12)

    def test_matches_enumeration_all_small_shapes(self):
        """200 random instances covering every shape up to 6x6."""
        rng = np.random.default_rng(7)
        shapes = [(m, n) for m in range(1, 7) for n in range(1, 7)]
        for case in range(200):
            m, n = shapes[case % len(shapes)]
            local = euclidean(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
            _, cost = mt._dtw_from_cost(local)
            assert cost == pytest.approx(enumerated_min_cost(local), abs=1e-12), (m, n, case)

    def test_repeated_final_frame_is_free(self):
        """Duplicating y's final frame adds a (0,1) step whose cost is the
        final-pair distance; with matching final frames that step is free."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 2))
        y = np.vstack([rng.normal(size=(3, 2)), x[-1]])
        y_ext = np.vstack([y, y[-1]])
        assert mt._dtw_from_cost(euclidean(x, y_ext))[1] == pytest.approx(
            mt._dtw_from_cost(euclidean(x, y))[1], abs=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_path_is_valid_and_cost_consistent(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        local = euclidean(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)))
        pairs, cost = mt._dtw_from_cost(local)
        assert tuple(pairs[0]) == (0, 0)
        assert tuple(pairs[-1]) == (m - 1, n - 1)
        steps = set(map(tuple, np.diff(pairs, axis=0)))
        assert steps <= {(1, 0), (0, 1), (1, 1)}
        assert cost == pytest.approx(float(local[pairs[:, 0], pairs[:, 1]].sum()), abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mt._dtw_from_cost(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            mt._dtw_from_cost(np.zeros((3, 0)))


class TestMcd:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 13))
        assert mt.mcd(x, x) == 0.0

    def test_unit_offset_on_coefficient_one(self):
        """+1.0 on coefficient 1 in every frame: each aligned pair contributes
        exactly (10/ln 10) * sqrt(2), about 6.1419 dB."""
        rng = np.random.default_rng(21)
        ref = rng.normal(size=(12, 13))
        syn = ref.copy()
        syn[:, 1] += 1.0
        assert mt.mcd(ref, syn) == pytest.approx(6.1421, abs=1e-3)
        assert mt.mcd(ref, syn) == pytest.approx(mt.MCD_CONST, abs=1e-12)

    def test_energy_coefficient_excluded(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(8, 13))
        syn = ref.copy()
        syn[:, 0] *= 100.0
        assert mt.mcd(ref, syn) == 0.0

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(1, 7)), 5))
        y = rng.normal(size=(int(rng.integers(1, 7)), 5))
        assert mt.mcd(x, y) >= 0.0
        assert mt.mcd(x, y) == pytest.approx(mt.mcd(y, x), rel=1e-12)

    def test_accepts_feature_matrices(self):
        x = FeatureMatrix(np.random.default_rng(1).normal(size=(4, 3)), FRAME_RATE,
                          FeatureKind.MEL_CEPSTRUM)
        assert mt.mcd(x, x) == 0.0

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            mt.mcd(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_empty_and_narrow(self):
        with pytest.raises(ValidationError):
            mt.mcd(np.zeros((0, 5)), np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            mt.mcd(np.zeros((3, 1)), np.zeros((3, 1)))

    def test_refuses_a_pair_above_the_cell_cap(self, monkeypatch):
        """Refused before any Tx x Ty matrix is built: the inputs are views of
        one row, and 10**10 cells would not fit in memory."""
        x = np.broadcast_to(np.zeros(13), (10**5, 13))
        with pytest.raises(DataError, match="DTW of 100000 x 100000 frames"):
            mt.mcd(x, x)
        monkeypatch.setattr(mt, "MAX_DTW_CELLS", 12)
        assert mt.mcd(np.zeros((3, 13)), np.zeros((4, 13))) == 0.0
        with pytest.raises(DataError, match="DTW of 3 x 5 frames exceeds the 12-cell limit"):
            mt.mcd(np.zeros((3, 13)), np.zeros((5, 13)))


class TestLogF0Rmse:
    def test_identical_tracks(self):
        track = F0Track(np.array([200.0, 210.0, 0.0, 190.0]), FRAME_RATE)
        result = mt.log_f0_rmse(track, track)
        assert result.rmse == 0.0
        assert not result.no_overlap

    def test_constant_ratio(self):
        ref = F0Track(np.full(10, 200.0), FRAME_RATE)
        syn = F0Track(np.full(10, 220.0), FRAME_RATE)
        result = mt.log_f0_rmse(ref, syn)
        assert result.rmse == pytest.approx(0.09531, abs=1e-4)
        assert result.num_pairs == 10

    def test_all_unvoiced_synthesis_flags_no_overlap(self):
        ref = F0Track(np.full(6, 150.0), FRAME_RATE)
        syn = F0Track(np.zeros(6), FRAME_RATE)
        result = mt.log_f0_rmse(ref, syn)
        assert result.rmse == 0.0
        assert result.no_overlap
        assert result.num_pairs == 0

    def test_unvoiced_frames_excluded(self):
        # voiced frames agree exactly; the unvoiced frame pairs off for free
        ref = F0Track(np.array([200.0, 0.0, 300.0]), FRAME_RATE)
        syn = F0Track(np.array([200.0, 0.0, 300.0]), FRAME_RATE)
        result = mt.log_f0_rmse(ref, syn)
        assert result.rmse == 0.0
        assert result.num_pairs == 2

    def test_different_lengths_align(self):
        ref = F0Track(np.full(8, 200.0), FRAME_RATE)
        syn = F0Track(np.full(5, 200.0), FRAME_RATE)
        result = mt.log_f0_rmse(ref, syn)
        assert result.rmse == 0.0
        assert result.num_pairs >= 8

    def test_rejects_rate_mismatch(self):
        a = F0Track(np.full(4, 100.0), Fraction(50))
        b = F0Track(np.full(4, 100.0), Fraction(100, 3))
        with pytest.raises(ValidationError):
            mt.log_f0_rmse(a, b)

    def test_rejects_empty_track(self):
        track = F0Track(np.full(3, 100.0), FRAME_RATE)
        with pytest.raises(ValidationError, match="non-empty"):
            mt.log_f0_rmse(F0Track(np.zeros(0), FRAME_RATE), track)

    def test_refuses_a_pair_above_the_cell_cap(self):
        track = F0Track(np.full(10**5, 200.0), FRAME_RATE)
        with pytest.raises(DataError, match="DTW of 100000 x 100000 frames"):
            mt.log_f0_rmse(track, track)


def evaluate_pair(tmp_path, capsys, syn_ids=("a", "b"), silent=("sb",)):
    """Run `duss evaluate` on two tone utterances against a tone and a silence
    (no voiced frame) under the given ids, or against silence for each stem in
    `silent`; return (exit code, stdout lines, the --out path, stderr events)."""
    t = np.arange(int(SR * 0.5)) / SR
    tones = {"ra": 220.0, "rb": 330.0, "sa": 250.0, "sb": 250.0}
    waves = [np.zeros_like(t) if stem in silent else 0.4 * np.sin(2 * np.pi * freq * t)
             for stem, freq in tones.items()]
    for name, x in zip(["ra", "rb", "sa", "sb"], waves):
        write_wav(str(tmp_path / f"{name}.wav"), Waveform(x, SR))
    for manifest, ids, stems in (("ref.jsonl", ("a", "b"), ("ra", "rb")),
                                 ("syn.jsonl", syn_ids, ("sa", "sb"))):
        save_manifest(CorpusManifest(entries=tuple(
            UtteranceEntry(id=i, audio_path=f"{stem}.wav", style_tag="read", duration=0.5)
            for i, stem in zip(ids, stems))), tmp_path / manifest)
    out = tmp_path / "report.json"
    rc = cli.main(["evaluate", str(tmp_path / "ref.jsonl"), str(tmp_path / "syn.jsonl"),
                   "--out", str(out)])
    captured = capsys.readouterr()
    return (rc, captured.out.splitlines(), out,
            [json.loads(line) for line in captured.err.splitlines()])


class TestReporting:
    """`duss evaluate` writes the corpus report: per-utterance rows and their means."""

    def test_summarize_means(self, tmp_path, capsys):
        """MCD averages every pair; log-F0 RMSE only the pairs that share a
        voiced frame, and the `evaluated` line counts them."""
        rc, _, out, events = evaluate_pair(tmp_path, capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        rows = report["per_utterance"]
        assert report["num_utterances"] == len(rows) == 2
        assert report["mcd_db"] == float(np.mean([r["mcd_db"] for r in rows])) > 0
        measured = [r["log_f0_rmse"] for r in rows if not r["f0_no_overlap"]]
        assert len(measured) == 1
        assert report["log_f0_rmse"] == measured[0] > 0
        assert events[-1] == {"event": "evaluated", "utterances": 2, "f0_utterances": 1,
                              "mcd_db": report["mcd_db"], "log_f0_rmse": measured[0]}

    def test_no_voiced_overlap_reports_no_f0(self, tmp_path, capsys):
        """With no pair sharing a voiced frame there is no log-F0 RMSE: JSON
        null and `n/a` in the table, never 0 or NaN."""
        rc, stdout, out, events = evaluate_pair(tmp_path, capsys, silent=("sa", "sb"))
        assert rc == 0
        text = out.read_text()
        report = json.loads(text)
        assert all(r["f0_no_overlap"] for r in report["per_utterance"])
        assert report["log_f0_rmse"] is None and "NaN" not in text
        assert stdout[1] == f"{0.0:>14.2f}  {report['mcd_db']:>10.4f}  {'n/a':>12}"
        assert (events[-1]["f0_utterances"], events[-1]["log_f0_rmse"]) == (0, None)

    def test_json_payload(self, tmp_path, capsys):
        rc, _, out, _ = evaluate_pair(tmp_path, capsys)
        assert rc == 0
        text = out.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n"
        assert list(report) == ["bitrate_bps", "mcd_db", "log_f0_rmse", "num_utterances",
                                "per_utterance"]
        assert report["bitrate_bps"] == 0.0
        a, b = report["per_utterance"]
        assert list(a) == ["id", "mcd_db", "log_f0_rmse", "f0_no_overlap"]
        assert (a["id"], a["f0_no_overlap"]) == ("a", False)
        assert (b["id"], b["log_f0_rmse"], b["f0_no_overlap"]) == ("b", None, True)

    def test_pair_above_the_dtw_cap_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mt, "MAX_DTW_CELLS", 100)
        rc, stdout, out, events = evaluate_pair(tmp_path, capsys)
        assert (rc, stdout, out.exists()) == (2, [], False)
        (event,) = events
        assert event["kind"] == "data"
        assert event["message"] == "a: DTW of 17 x 17 frames exceeds the 100-cell limit"

    def test_table_column_order(self, tmp_path, capsys):
        rc, stdout, out, _ = evaluate_pair(tmp_path, capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert stdout == [" Bitrate (bps)    MCD (dB)   Log F0 RMSE",
                          f"{0.0:>14.2f}  {report['mcd_db']:>10.4f}  "
                          f"{report['log_f0_rmse']:>12.4f}"]

    def test_summarize_requires_rows(self, tmp_path, capsys):
        rc, stdout, out, _ = evaluate_pair(tmp_path, capsys, syn_ids=("x", "y"))
        assert rc == 1
        assert stdout == [] and not out.exists()
