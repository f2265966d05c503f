"""Independent oracles for the hot paths: a per-band mel filterbank and a
per-frame log-mel analysis, the exp/angle Griffin-Lim loop, a plain DP and a
row-by-row loop for the DTW, the both/neither log-F0 cost matrix, a per-frame
YIN loop, brute-force nearest codes
for encoding, a dict-counted n-gram table, and the top-k ∩ nucleus candidate
set for every drawn token. Faster rewrites of these paths must keep these
properties."""

from collections import Counter, defaultdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal as sps

from duss import dsp, metrics, sampler, toylm
from duss.codec import Codebook, CodecConfig, RvqCodec, TokenSequence, encode
from duss.dsp import FeatureKind, FeatureMatrix

from conftest import FRAME_RATE

# Slack at the nucleus edge: the oracle's candidate set may be larger than the
# sampler's by tokens this close to the threshold, never smaller.
NUCLEUS_SLACK = 1e-9


def loop_filterbank(sample_rate, n_fft, n_mels, fmin, fmax):
    """Triangular mel filters built one band at a time."""
    n_freqs = n_fft // 2 + 1
    freqs = np.linspace(0.0, sample_rate / 2, n_freqs)
    pts = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(fmin), dsp.hz_to_mel(fmax), n_mels + 2))
    fb = np.zeros((n_mels, n_freqs))
    for m in range(n_mels):
        lo, center, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / max(center - lo, 1e-12)
        down = (hi - freqs) / max(hi - center, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@given(st.integers(1000, 48000), st.integers(2, 4096), st.integers(1, 128),
       st.floats(0.0, 0.99), st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_mel_filterbank_matches_per_band_loop(rate, n_fft, n_mels, lo, hi):
    nyquist = rate / 2
    fmin = lo * nyquist
    fmax = fmin + hi * (nyquist - fmin)
    assume(fmin < fmax <= nyquist)
    np.testing.assert_array_equal(dsp.mel_filterbank(rate, n_fft, n_mels, fmin, fmax),
                                  loop_filterbank(rate, n_fft, n_mels, fmin, fmax))


@given(st.sampled_from([8000, 16000, 22050, 24000]), st.integers(4, 512),
       st.floats(0.0, 1.0), st.integers(1, 40), st.sampled_from(["hann", "hamming",
                                                                  "rectangular"]),
       st.integers(1, 1000), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_analyze_matches_per_frame_reference(rate, frame_len, hop_share, n_mels, window,
                                             n, seed):
    """Centred reflect-padded frames, each windowed and transformed on its own,
    give the same log-mel bits as `analyze`."""
    hop = max(1, round(hop_share * frame_len))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    cfg = dsp.AnalysisConfig(sample_rate=rate, frame_len=frame_len, hop=hop,
                             window=window, n_mels=n_mels)
    win = (np.ones(frame_len) if window == "rectangular"
           else sps.get_window(window, frame_len, fftbins=True))
    num_frames = -(-n // hop)
    left = frame_len // 2
    right = max(0, (num_frames - 1) * hop + frame_len - left - n)
    padded = np.pad(x, (left, right), mode="reflect")
    spec = np.array([np.fft.rfft(padded[t * hop:t * hop + frame_len] * win)
                     for t in range(num_frames)])
    fb = loop_filterbank(rate, frame_len, n_mels, 0.0, rate / 2)
    want = np.log(np.maximum(np.abs(spec) ** 2 @ fb.T, dsp.LOG_EPS))
    np.testing.assert_array_equal(dsp.analyze(dsp.Waveform(x, rate), cfg).data, want)


def reference_griffin_lim(mel, cfg, iterations):
    """Griffin-Lim as first written: pinv of the filterbank on every call, the
    overlap-add normaliser rebuilt on every inversion, each frame re-analysed
    on its own, and the phase projected with exp(1j * angle(X)).

    Also returns how much the loop can grow a rounding difference: a change
    of one ulp in a bin X turns its phase by up to eps * target / |X|, so each
    iteration multiplies what came before by up to max(target / |X|)."""
    frame_len, hop, num_frames = cfg.frame_len, cfg.hop, len(mel)
    fb = loop_filterbank(cfg.sample_rate, frame_len, mel.shape[1], cfg.fmin,
                         cfg.resolved_fmax())
    target = np.sqrt(np.clip(np.exp(mel) @ np.linalg.pinv(fb).T, 0.0, None))
    win = (np.ones(frame_len) if cfg.window == "rectangular"
           else sps.get_window(cfg.window, frame_len, fftbins=True))

    def overlap_add(spec):
        frames = np.fft.irfft(spec, n=frame_len, axis=1)
        out, norm = np.zeros((2, num_frames * hop + frame_len))
        for t in range(num_frames):
            out[t * hop:t * hop + frame_len] += frames[t] * win
            norm[t * hop:t * hop + frame_len] += win * win
        return out / np.maximum(norm, 1e-12)

    spec, errors, growth = target.astype(np.complex128), [], 1.0
    for _ in range(iterations):
        y = overlap_add(spec)
        x = np.array([np.fft.rfft(y[t * hop:t * hop + frame_len] * win)
                      for t in range(num_frames)])
        mag = np.abs(x)
        errors.append(np.linalg.norm(mag - target) / (np.linalg.norm(target) or 1.0))
        growth *= max(1.0, np.divide(target, mag, out=np.zeros_like(mag), where=mag > 0).max())
        spec = target * np.exp(1j * np.angle(x))
    left = frame_len // 2
    return overlap_add(spec)[left:left + num_frames * hop], np.array(errors), growth


@st.composite
def log_mel_inputs(draw):
    """Small analysis settings and log-mel frames, some of them silent at the
    log floor or at zero power (exp underflows), and fmin above 0 so that the
    lowest bins get no filter and hence zero target magnitude."""
    rate = draw(st.sampled_from([8000, 16000]))
    frame_len = draw(st.integers(16, 256))
    cfg = dsp.AnalysisConfig(sample_rate=rate, frame_len=frame_len,
                             hop=draw(st.integers(1, frame_len)),
                             window=draw(st.sampled_from(["hann", "hamming", "rectangular"])),
                             n_mels=draw(st.integers(1, 12)),
                             fmin=draw(st.sampled_from([0.0, 0.05 * rate])))
    data = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), cfg.n_mels),
                           elements=st.floats(-6.0, 2.0)))
    silent = draw(st.lists(st.booleans(), min_size=len(data), max_size=len(data)))
    data[np.array(silent)] = draw(st.sampled_from([np.log(dsp.LOG_EPS), -1000.0]))
    return FeatureMatrix(data, cfg.frame_rate, FeatureKind.MEL_SPECTROGRAM), cfg


ZERO_POWER = (FeatureMatrix(np.full((3, 4), -1000.0), Fraction(16000, 64),
                            FeatureKind.MEL_SPECTROGRAM),
              dsp.AnalysisConfig(frame_len=128, hop=64, n_mels=4))


@given(log_mel_inputs(), st.integers(1, 8))
@example(ZERO_POWER, 3)  # every |X| is 0, so every phase is the fallback 1
@settings(max_examples=200, deadline=None)
def test_griffin_lim_matches_exp_angle_reference(case, iterations):
    """The X / |X| projection, cached filterbank inverse and once-built
    normaliser give the reference's samples and error sequence to 1e-9; the
    cached inverse is read-only and a second call gives the same bytes."""
    mel, cfg = case
    wave, errors = dsp.griffin_lim(mel, cfg, iterations, return_errors=True)
    assert dsp.griffin_lim(mel, cfg, iterations).samples.tobytes() == wave.samples.tobytes()
    key = (cfg.sample_rate, cfg.frame_len, mel.dim, cfg.fmin, cfg.resolved_fmax())
    inv = dsp._mel_inverse(*key)
    np.testing.assert_array_equal(inv, np.linalg.pinv(loop_filterbank(*key)).T)
    with pytest.raises(ValueError, match="read-only"):
        inv[0, 0] = 1.0

    want_samples, want_errors, growth = reference_griffin_lim(mel.data, cfg, iterations)
    # Beyond this, bins with |X| near 0 make the two roundings of one phase
    # diverge (hop 4, frame_len 112: 1e-2 apart after 6 iterations), and
    # neither loop is the more accurate one.
    assume(growth <= 1e6)
    np.testing.assert_allclose(wave.samples, want_samples, rtol=0, atol=1e-9)
    np.testing.assert_allclose(errors, want_errors, rtol=0, atol=1e-9)


def plain_dtw(local):
    """O(Tx*Ty) DP and traceback; ties go to the diagonal, then x, then y."""
    tx, ty = local.shape
    cum = [[0.0] * ty for _ in range(tx)]
    for i in range(tx):
        for j in range(ty):
            before = [cum[a][b] for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                      if a >= 0 and b >= 0]
            cum[i][j] = float(local[i, j]) + (min(before) if before else 0.0)
    i, j = tx - 1, ty - 1
    path = [(i, j)]
    while (i, j) != (0, 0):
        steps = [(cum[a][b], rank, (a, b))
                 for rank, (a, b) in enumerate(((i - 1, j - 1), (i - 1, j), (i, j - 1)))
                 if a >= 0 and b >= 0]
        i, j = min(steps)[2]
        path.append((i, j))
    return path[::-1], cum[-1][-1]


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 7)),
                  elements=st.integers(0, 3).map(float)))
@settings(max_examples=200, deadline=None)
def test_dtw_matches_plain_dp(local):
    """Integer costs keep every sum exact, so ties are real and must break alike."""
    pairs, cost = metrics._dtw_from_cost(local)
    want_path, want_cost = plain_dtw(local)
    assert [tuple(p) for p in pairs.tolist()] == want_path
    assert cost == want_cost



def reference_dtw(local):
    """The DTW as first written: the cumulative matrix filled one row at a
    time with a scalar min of three, then the same traceback."""
    tx, ty = local.shape
    cum = np.empty_like(local)
    cum[0, 0] = local[0, 0]
    cum[0, 1:] = local[0, 1:].cumsum() + local[0, 0]
    cum[1:, 0] = local[1:, 0].cumsum() + local[0, 0]
    for i in range(1, tx):
        row, prev = cum[i], cum[i - 1]
        for j in range(1, ty):
            best = prev[j - 1]  # diagonal preferred on ties
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = local[i, j] + best
    pairs = [(tx - 1, ty - 1)]
    i, j = tx - 1, ty - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = cum[i - 1, j - 1], cum[i - 1, j], cum[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        pairs.append((i, j))
    return np.array(pairs[::-1], dtype=np.int64), float(cum[-1, -1])


@st.composite
def dtw_costs(draw):
    """Real costs, or small integer costs whose sums tie exactly."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    elements = draw(st.sampled_from([st.floats(0.0, 1e3), st.integers(0, 3).map(float)]))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@given(dtw_costs())
@example(np.arange(9.0).reshape(1, 9) % 2)
@example(np.arange(9.0).reshape(9, 1) % 3)
@example(np.asfortranarray(np.random.default_rng(5).integers(0, 3, (12, 7)).astype(float)))
@settings(max_examples=200, deadline=None)
def test_dtw_matches_row_loop_bit_for_bit(local):
    """The anti-diagonal fill gives the row loop's path and cost exactly."""
    pairs, cost = metrics._dtw_from_cost(local)
    want_pairs, want_cost = reference_dtw(local)
    assert np.array_equal(pairs, want_pairs)
    assert cost == want_cost


def reference_log_f0_rmse(ref, syn):
    """log_f0_rmse as first written, with its cost matrix: both-voiced and
    neither-voiced outer masks select the log distance, 0 or the mismatch cost."""
    rv, sv = ref.voiced_mask, syn.voiced_mask
    log_r = np.where(rv, np.log(np.where(rv, ref.values, 1.0)), 0.0)
    log_s = np.where(sv, np.log(np.where(sv, syn.values, 1.0)), 0.0)
    both = np.outer(rv, sv)
    neither = np.outer(~rv, ~sv)
    cost = np.where(both, np.abs(log_r[:, None] - log_s[None, :]),
                    np.where(neither, 0.0, metrics.VOICING_MISMATCH_COST))
    pairs, _ = metrics._dtw_from_cost(cost)
    xi, yi = pairs[:, 0], pairs[:, 1]
    keep = rv[xi] & sv[yi]
    if not np.any(keep):
        return cost, metrics.LogF0Result(rmse=0.0, no_overlap=True, num_pairs=0)
    diffs = log_r[xi[keep]] - log_s[yi[keep]]
    return cost, metrics.LogF0Result(rmse=float(np.sqrt(np.mean(diffs * diffs))),
                                     no_overlap=False, num_pairs=int(keep.sum()))


f0_values = st.one_of(st.just(0.0), st.floats(50.0, 1000.0), st.sampled_from([110.0, 220.0]))


@given(hnp.arrays(np.float64, st.integers(1, 59), elements=f0_values),
       hnp.arrays(np.float64, st.integers(1, 59), elements=f0_values))
@settings(max_examples=200, deadline=None)
def test_log_f0_cost_matches_both_neither_masks(ref_values, syn_values):
    """One voicing test builds the both/neither construction's bytes, so the
    alignment and the RMSE are those of the old cost matrix."""
    ref, syn = (dsp.F0Track(values=v, frame_rate=FRAME_RATE) for v in (ref_values, syn_values))
    with mock.patch.object(metrics, "_dtw_from_cost", wraps=metrics._dtw_from_cost) as dtw:
        result = metrics.log_f0_rmse(ref, syn)
    want_cost, want = reference_log_f0_rmse(ref, syn)
    (cost,) = dtw.call_args.args
    assert cost.dtype == want_cost.dtype and cost.tobytes() == want_cost.tobytes()
    assert result == want


def reference_pick_f0(cmndf, tau_min, tau_max, threshold, sr, f0_floor, f0_ceil):
    """Absolute-threshold lag pick plus parabolic refinement; 0 if unvoiced."""
    below = np.nonzero(cmndf[tau_min - 1: tau_max] < threshold)[0]
    if len(below) == 0:
        return 0.0
    tau = tau_min + below[0]
    while tau < tau_max and cmndf[tau] < cmndf[tau - 1]:
        tau += 1
    # cmndf index i corresponds to lag i + 1
    idx = tau - 1
    refined = float(tau)
    if 0 < idx < len(cmndf) - 1:
        a, b, c = cmndf[idx - 1], cmndf[idx], cmndf[idx + 1]
        denom = a - 2.0 * b + c
        if denom > 0:
            shift = 0.5 * (a - c) / denom
            refined = tau + float(np.clip(shift, -1.0, 1.0))
    f0 = sr / refined
    if not (f0_floor <= f0 <= f0_ceil):
        return 0.0
    return f0


def reference_estimate_f0(samples, sr, f0_floor, f0_ceil, hop, threshold):
    """YIN as first written: one centred frame at a time, each with its own
    energy cumsum, difference function, CMNDF and lag pick."""
    tau_max = int(np.ceil(sr / f0_floor))
    tau_min = max(2, int(np.floor(sr / f0_ceil)))
    num_frames = -(-len(samples) // hop)
    values = np.zeros(num_frames)
    if num_frames == 0:
        return values
    window, seg_len = tau_max, 2 * tau_max
    right = max(0, (num_frames - 1) * hop + seg_len - tau_max - len(samples))
    padded = np.pad(samples, (tau_max, right), mode="reflect")
    taus = np.arange(1, tau_max + 1)
    for t in range(num_frames):
        seg = padded[t * hop:t * hop + seg_len]
        energy = np.cumsum(seg * seg)
        e_lag = energy[taus + window - 1] - energy[taus - 1]
        corr = np.correlate(seg, seg[:window], mode="valid")[1:]
        diff = np.maximum(energy[window - 1] + e_lag - 2.0 * corr, 0.0)
        denom = np.cumsum(diff)
        with np.errstate(divide="ignore", invalid="ignore"):
            cmndf = np.where(denom > 0, diff * taus / denom, 1.0)
        values[t] = reference_pick_f0(cmndf, tau_min, tau_max, threshold, sr,
                                      f0_floor, f0_ceil)
    return values


@st.composite
def yin_inputs(draw):
    """Silence, sine or square tones near the floor or the ceiling, noise, or a
    mixture, from one sample up to past several frames, with varied analysis
    settings. Square tones above the ceiling make the parabola through the
    picked lag open downwards, where no refinement applies."""
    sr = draw(st.sampled_from([8000, 16000]))
    f0_floor = draw(st.floats(50.0, 300.0))
    f0_ceil = draw(st.floats(f0_floor * 1.05, min(1000.0, 0.45 * sr)))
    tau_max = int(np.ceil(sr / f0_floor))
    hop = draw(st.integers(1, 600))
    n = draw(st.one_of(st.integers(1, hop), st.integers(1, tau_max), st.integers(1, 4000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.arange(n) / sr
    tone = np.sin(2 * np.pi * draw(st.sampled_from([f0_floor, f0_ceil]))
                  * draw(st.floats(0.9, 1.1)) * t)
    noise = rng.standard_normal(n)
    x = draw(st.sampled_from([np.zeros(n), 0.5 * tone, 0.5 * np.sign(tone), 0.3 * noise,
                              0.5 * tone + draw(st.floats(0.0, 0.5)) * noise]))
    return x, sr, f0_floor, f0_ceil, hop, draw(st.floats(0.01, 0.6))


@given(yin_inputs())
@settings(max_examples=200, deadline=None)
def test_estimate_f0_matches_per_frame_loop(case):
    """Framing and picking all frames at once gives the per-frame loop's bits."""
    x, sr, f0_floor, f0_ceil, hop, threshold = case
    track = dsp.estimate_f0(dsp.Waveform(x, sr), f0_floor, f0_ceil, hop, threshold)
    assert np.array_equal(track.values,
                          reference_estimate_f0(x, sr, f0_floor, f0_ceil, hop, threshold))

@st.composite
def codec_and_frames(draw):
    v, q, d = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    small_ints = st.integers(-3, 3).map(float)
    stages = [Codebook(vectors=draw(hnp.arrays(np.float64, (v, d), elements=small_ints)),
                       usage_counts=np.zeros(v, dtype=np.int64)) for _ in range(q)]
    cfg = CodecConfig(codebook_size=v, num_quantizers=q, feature_dim=d)
    frames = draw(hnp.arrays(np.float64, (draw(st.integers(0, 10)), d), elements=small_ints))
    return RvqCodec(config=cfg, stages=stages), frames


@given(codec_and_frames())
@settings(max_examples=200, deadline=None)
def test_encode_picks_brute_force_nearest_code(case):
    """Each stage's token is the nearest code to the running residual by explicit
    squared distance, lowest index on ties (exact on integer-valued data)."""
    codec, frames = case
    seq = encode(codec, FeatureMatrix(frames, FRAME_RATE, FeatureKind.MEL_SPECTROGRAM))
    for t, frame in enumerate(frames):
        residual = frame.copy()
        for s, stage in enumerate(codec.stages):
            dists = [float(np.sum((residual - code) ** 2)) for code in stage.vectors]
            nearest = dists.index(min(dists))
            assert seq.tokens[s, t] == nearest, (s, t, dists)
            residual = residual - stage.vectors[nearest]


def count_table(corpora, order, stop):
    """Next-token counts after every context of length < order, over each
    sequence's stage-0 stream ending in the stop id."""
    table = defaultdict(Counter)
    for seq in corpora:
        for stream in seq.tokens.tolist()[:1]:
            utt = stream + [stop]
            for i, tok in enumerate(utt):
                for length in range(min(order - 1, i) + 1):
                    table[tuple(utt[i - length:i])][tok] += 1
    return table


@st.composite
def lm_corpora(draw):
    v, order = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    corpora = []
    for _ in range(draw(st.integers(1, 3))):
        q, t = draw(st.integers(1, 2)), draw(st.integers(0, 12))
        tokens = draw(hnp.arrays(np.int64, (q, t), elements=st.integers(0, v - 1)))
        corpora.append(TokenSequence(tokens=tokens, vocab_size=v, frame_rate=FRAME_RATE))
    return v, order, corpora


@given(lm_corpora())
@settings(max_examples=200, deadline=None)
def test_ngram_counts_match_dict_table(case):
    v, order, corpora = case
    model = toylm.train_ngram(corpora, n=order, alpha=0.1)
    table = count_table(corpora, order, stop=v)
    assert set(model.counts) == set(table)
    for ctx, counter in table.items():
        ids, counts = model.counts[ctx]
        assert ids.tolist() == sorted(counter), ctx
        assert counts.tolist() == [counter[tok] for tok in sorted(counter)], ctx


def candidates(table, order, alpha, vocab, context, params):
    """Top-k ∩ nucleus of the tempered, smoothed back-off distribution after
    `context`: ranked by probability then id, kept while fewer than k are
    kept and the mass before the token is below p."""
    counts = [0] * vocab
    for length in range(min(order - 1, len(context)), -1, -1):
        key = tuple(context[len(context) - length:])
        if key in table:
            for tok, c in table[key].items():
                counts[tok] = c
            break
    total = sum(c + alpha for c in counts)
    scaled = [np.log((c + alpha) / total) / params.temperature for c in counts]
    top = max(scaled)
    weights = [np.exp(x - top) for x in scaled]
    q = [w / sum(weights) for w in weights]
    keep, mass = set(), 0.0
    for tok in sorted(range(vocab), key=lambda t: (-q[t], t))[:params.k]:
        if mass >= params.p + NUCLEUS_SLACK:
            break
        keep.add(tok)
        mass += q[tok]
    return keep


@given(lm_corpora(), st.integers(1, 7), st.floats(0.05, 1.0), st.floats(0.1, 2.0),
       st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_generated_tokens_lie_in_candidate_set(case, k, p, temperature, max_len, seed):
    v, order, corpora = case
    model = toylm.train_ngram(corpora, n=order, alpha=0.1)
    params = sampler.SamplingParams(k=k, p=p, temperature=temperature)
    result = sampler.generate(model, params, max_len, np.random.default_rng(seed))
    table = count_table(corpora, order, stop=v)
    stream = result.sequence.tokens[0].tolist() + ([v] if result.natural else [])
    for t, drawn in enumerate(stream):
        assert drawn in candidates(table, order, model.alpha, v + 1, stream[:t], params), t
