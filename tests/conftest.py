"""Shared fixtures: tones, synthetic corpora, small trained codecs, and the
scripts under scripts/ as modules."""

import importlib.util
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from duss import (
    AnalysisConfig,
    CodecConfig,
    FeatureKind,
    FeatureMatrix,
    Waveform,
    analyze,
    train_codebooks,
    write_wav,
)

SR = 16000
FRAME_RATE = Fraction(100, 3)


def load_script(name):
    """A script under scripts/, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(
        os.path.dirname(__file__), os.pardir, "scripts", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tone(freq: float, duration: float = 1.0, sr: int = SR,
              amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(sr * duration)) / sr
    return Waveform(amplitude * np.sin(2 * np.pi * freq * t), sr)


def make_feature_matrix(rng, frames: int, dim: int,
                        kind=FeatureKind.MEL_SPECTROGRAM) -> FeatureMatrix:
    return FeatureMatrix(data=rng.normal(size=(frames, dim)),
                         frame_rate=FRAME_RATE, kind=kind)


def make_clustered_features(rng, frames: int, dim: int, n_clusters: int = 8,
                            spread: float = 20.0, jitter: float = 0.5) -> FeatureMatrix:
    """Frames drawn around well-separated cluster centers.

    Mimics the structure of speech features (a few dominant spectral shapes
    with small per-frame variation), which is the regime the quantizer is
    meant for.
    """
    centers = rng.normal(scale=spread, size=(n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=frames)
    data = centers[labels] + rng.normal(scale=jitter, size=(frames, dim))
    return FeatureMatrix(data=data, frame_rate=FRAME_RATE,
                         kind=FeatureKind.MEL_SPECTROGRAM)


@pytest.fixture(scope="session")
def tone_440():
    return make_tone(440.0)


@pytest.fixture(scope="session")
def analysis_cfg():
    return AnalysisConfig()


@pytest.fixture(scope="session")
def sine_mix_features(analysis_cfg):
    """Ten half-second two-sine utterances, analyzed to log-mel frames."""
    rng = np.random.default_rng(777)
    feats = []
    for _ in range(10):
        t = np.arange(int(SR * 0.5)) / SR
        f1, f2 = rng.uniform(150, 600, size=2)
        x = (0.3 * np.sin(2 * np.pi * f1 * t) + 0.2 * np.sin(2 * np.pi * f2 * t)
             + 0.02 * rng.standard_normal(len(t)))
        feats.append(analyze(Waveform(x, SR), analysis_cfg))
    return feats


@pytest.fixture(scope="session")
def tiny_codec():
    """A fast V=8, Q=2 codec over clustered 8-dimensional frames."""
    rng = np.random.default_rng(31)
    fm = make_clustered_features(rng, 128, 8)
    cfg = CodecConfig(codebook_size=8, num_quantizers=2, feature_dim=8,
                      kmeans_iters=10, seed=4)
    return train_codebooks(fm, cfg), fm


def write_corpus(root, entries, rng=None, duration: float = 0.6):
    """Create WAV files plus a JSON-lines manifest under `root`.

    `entries` is a list of (utt_id, freq, style_tag, split) tuples; returns
    the manifest path.
    """
    audio_dir = os.path.join(root, "audio")
    os.makedirs(audio_dir, exist_ok=True)
    rng = rng or np.random.default_rng(1)
    rows = []
    for utt_id, freq, style, split in entries:
        t = np.arange(int(SR * duration)) / SR
        x = 0.4 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(len(t))
        rel = os.path.join("audio", f"{utt_id}.wav")
        write_wav(os.path.join(root, rel), Waveform(x, SR))
        rows.append({"id": utt_id, "audio_path": rel, "style_tag": style,
                     "duration": duration, "transcript": None, "split": split})
    manifest = os.path.join(root, "corpus.jsonl")
    with open(manifest, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return manifest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per release criterion, when the gate ran."""
    import sys

    gate = sys.modules.get("test_acceptance")
    verdicts = getattr(gate, "VERDICTS", None) or {}
    ran = {num: v for num, v in verdicts.items() if v[1] is not None}
    if not ran:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(ran):
        label, passed = ran[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {verdict}")
