"""Release gate: one test per acceptance criterion. Each criterion records a
verdict in VERDICTS, and the conftest terminal-summary hook prints exactly one
PASS/FAIL line per criterion after the run."""

import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.stats

from duss import cli, codec as cd, dsp, metrics as mt, sampler as sp
from duss import toylm as tl, tuner as tn
from duss.sampler import SamplingParams

from conftest import FRAME_RATE, make_clustered_features, write_corpus

CORPUS = [("utt_000", 220.0, "read", "train"),
          ("utt_001", 300.0, "read", "train"),
          ("utt_002", 380.0, "whisper", "train"),
          ("utt_003", 440.0, "read", "train"),
          ("utt_004", 520.0, "laughing", "train"),
          ("utt_005", 600.0, "read", "train")]

# sampling triples shipped as the acoustic presets (k, p, temperature)
PRESET_TRIPLES = [(11, 0.186, 0.507), (176, 0.521, 0.375), (181, 0.779, 0.351)]

# criterion number -> (label, True/False once the test ran)
VERDICTS: dict = {}


def criterion(num: int, label: str):
    """Record a per-criterion verdict for the end-of-run summary."""

    VERDICTS[num] = (label, None)

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            VERDICTS[num] = (label, False)
            fn(*args, **kwargs)
            VERDICTS[num] = (label, True)

        return wrapper

    return deco


@criterion(1, "nominal bitrate arithmetic")
def test_criterion_1_nominal_bitrate_arithmetic():
    rate = Fraction(100, 3)
    low = mt.nominal_bitrate(1024, 2, rate)
    assert abs(low - 666.67) < 5e-3
    assert abs(low - 670.0) / 670.0 < 0.01

    high = mt.nominal_bitrate(1024, 2, 50)
    assert high == 1000.0
    assert abs(high - 1003.0) / 1003.0 < 0.005

    # single-stage ladder vs the measured reference rates it approximates
    ladder = [mt.nominal_bitrate(v, 1, rate) for v in (1024, 512, 256)]
    measured = [351.1, 313.8, 277.6]
    for nominal, target in zip(ladder, measured):
        assert abs(nominal - target) / target < 0.08
    assert ladder[0] > ladder[1] > ladder[2]


@criterion(2, "sampler distributional correctness")
def test_criterion_2_sampler_distribution():
    rng = np.random.default_rng(20240823)
    passed = 0
    for _ in range(50):
        v = int(rng.integers(2, 9))
        logits = np.clip(rng.normal(0.0, 1.5, size=v), -2.5, 2.5)
        temperature = float(rng.uniform(0.6, 1.6))
        params = SamplingParams(k=v + 1, p=1.0, temperature=temperature)
        draws = sp.sample_token(logits, params, np.random.default_rng(rng.integers(2 ** 32)),
                                size=100_000)
        counts = np.bincount(draws, minlength=v)
        expected = sp.apply_temperature(logits, temperature) * 100_000
        if scipy.stats.chisquare(counts, expected).pvalue > 0.01:
            passed += 1
    assert passed >= 48, f"chi-squared fit passed only {passed}/50 cases"

    # candidate filter vs a brute-force sorted-prefix walk
    rng = np.random.default_rng(99)
    for _ in range(1000):
        v = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(v))
        k = int(rng.integers(1, v + 2))
        p = float(rng.uniform(0.05, 1.0))
        order = np.argsort(-probs, kind="stable")
        expected_mask = np.zeros(v, dtype=bool)
        cum = 0.0
        for rank, idx in enumerate(order):
            if rank >= k or cum >= p - sp.NUCLEUS_TOL:
                break
            expected_mask[idx] = True
            cum += probs[idx]
        got = sp.filter_candidates(probs, k, p)
        assert np.array_equal(got, expected_mask)


@criterion(3, "residual quantizer training")
def test_criterion_3_quantizer_training():
    # per-stage error never increases with stage depth
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fm = cd.FeatureMatrix(data=rng.normal(size=(120, 6)),
                              frame_rate=FRAME_RATE,
                              kind=cd.FeatureKind.MEL_SPECTROGRAM)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=3, feature_dim=6,
                             kmeans_iters=6, seed=seed)
        mses = cd.train_codebooks([fm], cfg).stage_train_mse
        assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))

    # one stage with as many codes as distinct frames reaches zero error
    rng = np.random.default_rng(7)
    distinct = rng.integers(0, 16, size=(10, 4)).astype(np.float64) / 8.0
    fm = cd.FeatureMatrix(data=np.tile(distinct, (12, 1)), frame_rate=FRAME_RATE,
                          kind=cd.FeatureKind.MEL_SPECTROGRAM)
    cfg = cd.CodecConfig(codebook_size=10, num_quantizers=1, feature_dim=4,
                         kmeans_iters=25, seed=0)
    exact = cd.train_codebooks([fm], cfg)
    np.testing.assert_array_equal(cd.decode(exact, cd.encode(exact, fm)).data, fm.data)

    # encode -> decode -> encode is a token fixed point on clustered inputs
    for seed in range(100, 110):
        fm = make_clustered_features(np.random.default_rng(seed), 256, 8)
        cfg = cd.CodecConfig(codebook_size=8, num_quantizers=2, feature_dim=8,
                             kmeans_iters=10, seed=seed)
        trained = cd.train_codebooks([fm], cfg)
        first = cd.encode(trained, fm)
        second = cd.encode(trained, cd.decode(trained, first))
        assert np.array_equal(first.tokens, second.tokens)


@criterion(4, "objective metric formulas")
def test_criterion_4_metric_formulas():
    rng = np.random.default_rng(21)
    ref = rng.normal(size=(12, 13))
    assert mt.mcd(ref, ref.copy()) == 0.0

    syn = ref.copy()
    syn[:, 1] += 1.0
    assert abs(mt.mcd(ref, syn) - 6.1421) < 1e-3

    # alignment cost equals exhaustive path enumeration on every small shape
    def enumerated_min_cost(local):
        m, n = local.shape
        best = math.inf

        def walk(i, j, acc):
            nonlocal best
            acc += local[i, j]
            if acc >= best:
                return
            if i == m - 1 and j == n - 1:
                best = acc
                return
            if i + 1 < m:
                walk(i + 1, j, acc)
            if j + 1 < n:
                walk(i, j + 1, acc)
            if i + 1 < m and j + 1 < n:
                walk(i + 1, j + 1, acc)

        walk(0, 0, 0.0)
        return best

    rng = np.random.default_rng(7)
    shapes = list(itertools.product(range(1, 7), range(1, 7)))
    for case in range(200):
        m, n = shapes[case % len(shapes)]
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(n, 3))
        local = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        _, cost = mt._dtw_from_cost(local)
        assert math.isclose(cost, enumerated_min_cost(local),
                            rel_tol=1e-10, abs_tol=1e-10)

    ref_track = dsp.F0Track(values=np.full(10, 200.0), frame_rate=FRAME_RATE)
    syn_track = dsp.F0Track(values=np.full(10, 220.0), frame_rate=FRAME_RATE)
    result = mt.log_f0_rmse(ref_track, syn_track)
    assert abs(result.rmse - 0.09531) < 1e-4


@criterion(5, "tuner recovers the temperature optimum")
def test_criterion_5_tuner_recovery():
    class SyntheticScorer:
        """Separable objective with optimum at tau=0.4, p=0.5, k=50."""

        def score(self, generated, ctx):
            p = ctx.params
            return (-(p.temperature - 0.4) ** 2
                    - 0.1 * (p.p - 0.5) ** 2
                    - 0.001 * (p.k - 50) ** 2)

    def stop_model(context):
        return np.array([-50.0, -50.0, 0.0])

    # k limited to 40..60 so the temperature term dominates the objective's
    # variance; over the full 5..300 range the k term swamps it instead
    space = tn.SearchSpace(k_range=(40, 60))
    recovered = 0
    temperature_dominant = 0
    for seed in range(20):
        history = tn.tune(space, SyntheticScorer(), stop_model, 1,
                          n_trials=500, seed=seed, max_len=5)
        if abs(history.best_trial.params.temperature - 0.4) <= 0.05:
            recovered += 1
        importance = tn.param_importance(history)
        if max(importance, key=importance.get) == "temperature":
            temperature_dominant += 1
    assert recovered >= 19, f"recovered tau in only {recovered}/20 repetitions"
    assert temperature_dominant >= 19, (
        f"temperature ranked most important in only {temperature_dominant}/20")


@criterion(6, "end-to-end pipeline and codebook-size ordering")
def test_criterion_6_end_to_end_pipeline():
    rng = np.random.default_rng(777)
    sample_rate = 16000
    t = np.arange(int(0.9 * sample_rate)) / sample_rate
    cfg = dsp.AnalysisConfig()
    mels = []
    for _ in range(8):
        f0 = rng.uniform(120.0, 350.0)
        x = np.zeros_like(t)
        for harmonic in (1, 2, 3):
            x += (rng.uniform(0.1, 0.5)
                  * np.sin(2 * np.pi * f0 * harmonic * t + rng.uniform(0, 2 * np.pi)))
        x += 0.01 * rng.normal(size=t.size)
        wave = dsp.Waveform(samples=0.5 * x / np.max(np.abs(x)),
                            sample_rate=sample_rate)
        mels.append(dsp.analyze(wave, cfg))

    def mean_mcd(vocab_size):
        codec_cfg = cd.CodecConfig(codebook_size=vocab_size, num_quantizers=2,
                                   feature_dim=cfg.n_mels,
                                   kmeans_iters=25, seed=11)
        trained = cd.train_codebooks(mels, codec_cfg)
        values = []
        for mel in mels:
            decoded = cd.decode(trained, cd.encode(trained, mel))
            values.append(mt.mcd(dsp.mel_cepstrum(mel, 13),
                                 dsp.mel_cepstrum(decoded, 13)))
        return trained, float(np.mean(values))

    codec64, mcd64 = mean_mcd(64)
    _, mcd8 = mean_mcd(8)
    assert mcd64 < mcd8, f"MCD at V=64 ({mcd64:.3f}) not below V=8 ({mcd8:.3f})"

    model = tl.train_ngram([cd.encode(codec64, mel) for mel in mels],
                           n=3, alpha=0.1)
    for triple_index, (k, p, temperature) in enumerate(PRESET_TRIPLES):
        params = SamplingParams(k=k, p=p, temperature=temperature)
        for i in range(10):
            gen_rng = np.random.default_rng([1000 + triple_index, i])
            result = sp.generate(model, params, 120, gen_rng)
            if result.sequence.num_frames:
                assert result.sequence.tokens.max() < model.vocab_size - 1


@criterion(7, "external neural metrics are declared out of scope")
def test_criterion_7_external_metric_notice():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "UTMOS" in text
    assert "WER" in text
    assert "not reproduced" in text.lower()


@criterion(8, "command-line determinism")
def test_criterion_8_cli_determinism(tmp_path, capsys):
    manifest = write_corpus(tmp_path, CORPUS)

    def run_all(out_root: Path) -> dict:
        out_root.mkdir()
        codec_path = str(out_root / "codec.duss")
        tokens = str(out_root / "tok.dust")
        lm = str(out_root / "lm.duss")
        audio0 = str(Path(manifest).parent / "audio" / "utt_000.wav")
        commands = [
            ["train-codec", manifest, "--out", codec_path, "--codebook-size",
             "16", "--num-quantizers", "2", "--kmeans-iters", "5", "--seed", "3"],
            ["encode", codec_path, audio0, "--out", tokens],
            ["decode", codec_path, tokens, "--out", str(out_root / "rec.wav")],
            ["train-lm", tokens, "--out", lm],
            ["generate", lm, codec_path, "--out-dir", str(out_root / "gen"),
             "--count", "2", "--seed", "7", "--max-len", "40"],
            ["tune", lm, codec_path, "--out", str(out_root / "hist.jsonl"),
             "--n-trials", "5", "--dev-count", "1", "--max-len", "30",
             "--seed", "2"],
            ["evaluate", manifest, manifest, "--codec", codec_path,
             "--out", str(out_root / "report.json")],
            ["corpus-filter", manifest, "--out", str(out_root / "kept.jsonl"),
             "--exclude-styles", "whisper"],
        ]
        for argv in commands:
            assert cli.main(argv) == 0, f"command failed: {argv[0]}"
        produced = [p for p in sorted(out_root.rglob("*")) if p.is_file()]
        return {str(p.relative_to(out_root)): p.read_bytes() for p in produced}

    first = run_all(tmp_path / "run_a")
    second = run_all(tmp_path / "run_b")
    capsys.readouterr()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"output differs on rerun: {name}"
