"""Seeded synthetic speech-like audio for the benchmark's corpora.

An utterance is a run of syllable-like segments: voiced harmonic glides with
a random spectral tilt (so YIN and the mel frontend see real pitch and
formant-like structure), short noise bursts and low-level pauses. The
acoustic track's LM corpus is built from a fixed pool of such syllables, so
its token streams have the repeated-unit structure an n-gram model can learn.
"""

from __future__ import annotations

import numpy as np

SAMPLE_RATE = 16000

VOICED, NOISE, PAUSE = range(3)
# Segment kinds in the order utterances cycle through them: 7 voiced, 2
# noise bursts and 1 pause in every 10, so that utterances differ in their
# details but not in their make-up.
CYCLE = (VOICED, VOICED, NOISE, VOICED, VOICED, PAUSE, VOICED, VOICED, NOISE, VOICED)


def syllable(rng: np.random.Generator, kind: int = None) -> np.ndarray:
    """One segment of 80-300 ms: a harmonic glide, a noise burst or a pause
    (of a random kind when none is given)."""
    if kind is None:
        kind = CYCLE[int(rng.integers(len(CYCLE)))]
    n = int(SAMPLE_RATE * rng.uniform(0.08, 0.3))
    if kind == VOICED:
        f0 = np.linspace(*rng.uniform(90.0, 280.0, size=2), n)
        phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE + rng.uniform(0.0, 2.0 * np.pi)
        amps = rng.uniform(0.0, 1.0, size=8) / np.arange(1, 9)
        x = sum(a * np.sin(h * phase) for h, a in enumerate(amps, start=1))
        return np.hanning(n) * x + 0.01 * rng.normal(size=n)
    if kind == NOISE:
        width = int(rng.integers(2, 12))
        noise = np.convolve(rng.normal(size=n), np.ones(width) / width, mode="same")
        return 0.3 * np.hanning(n) * noise
    return 0.02 * rng.normal(size=n)


def utterance(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Fresh syllables, cycling through CYCLE from a random start, until
    `seconds` of audio, peak-normalised to 0.5."""
    total = int(round(seconds * SAMPLE_RATE))
    parts, have = [], 0
    start = int(rng.integers(len(CYCLE)))
    while have < total:
        parts.append(syllable(rng, CYCLE[(start + len(parts)) % len(CYCLE)]))
        have += len(parts[-1])
    x = np.concatenate(parts)[:total]
    return 0.5 * x / max(float(np.max(np.abs(x))), 1e-9)
