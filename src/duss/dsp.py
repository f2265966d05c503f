"""Signal-processing frontend: resampling, STFT, mel features, F0, and phase reconstruction.

All operations are pure functions over immutable inputs and are deterministic
for identical inputs and configuration.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import signal as sps
from scipy.fft import dct as _scipy_dct
from scipy.io import wavfile

from .errors import DataError, ValidationError, atomic_write

# Floor applied before log compression of mel energies.
LOG_EPS = 1e-10

# Default analysis settings: 2048-sample Hann frames, hop 480 at 16 kHz
# (frame rate 100/3 Hz; the same hop at 24 kHz gives 50 Hz), 80 mel bands,
# 60 Griffin-Lim iterations.
DEFAULT_SAMPLE_RATE = 16000
DEFAULT_FRAME_LEN = 2048
DEFAULT_HOP = 480
DEFAULT_WINDOW = "hann"
DEFAULT_N_MELS = 80
DEFAULT_GL_ITERATIONS = 60

WINDOW_NAMES = ("hann", "hamming", "rectangular")


class FeatureKind(enum.IntEnum):
    """What a FeatureMatrix holds: log-mel frames or their truncated cepstrum."""

    MEL_SPECTROGRAM = 1
    MEL_CEPSTRUM = 2


@dataclass(frozen=True)
class Waveform:
    """Mono time-domain signal with an explicit sample rate.

    Samples are float64, nominally in [-1, 1]; finiteness is enforced.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 1:
            raise ValidationError(f"waveform must be mono 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValidationError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D real feature frames at a rational frame rate."""

    data: np.ndarray
    frame_rate: Fraction
    kind: FeatureKind

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("feature matrix contains non-finite entries")
        rate = Fraction(self.frame_rate)
        if rate <= 0:
            raise ValidationError(f"frame_rate must be positive, got {rate}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "frame_rate", rate)
        object.__setattr__(self, "kind", FeatureKind(self.kind))

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class F0Track:
    """Per-frame fundamental frequency in Hz; 0 marks unvoiced frames."""

    values: np.ndarray
    frame_rate: Fraction

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise ValidationError(f"F0 track must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("F0 values must be finite and non-negative")
        rate = Fraction(self.frame_rate)
        if rate <= 0:
            raise ValidationError(f"frame_rate must be positive, got {rate}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "frame_rate", rate)

    @property
    def voiced_mask(self) -> np.ndarray:
        return self.values > 0


@dataclass(frozen=True)
class AnalysisConfig:
    """Shared analysis settings for the mel frontend and its inversion."""

    sample_rate: int = DEFAULT_SAMPLE_RATE
    frame_len: int = DEFAULT_FRAME_LEN
    hop: int = DEFAULT_HOP
    window: str = DEFAULT_WINDOW
    n_mels: int = DEFAULT_N_MELS
    fmin: float = 0.0
    fmax: Optional[float] = None  # None means Nyquist

    def resolved_fmax(self) -> float:
        return self.sample_rate / 2 if self.fmax is None else self.fmax

    @property
    def frame_rate(self) -> Fraction:
        return Fraction(self.sample_rate, self.hop)


def _get_window(name: str, frame_len: int) -> np.ndarray:
    if name == "rectangular":
        return np.ones(frame_len)
    if name not in WINDOW_NAMES:
        raise ValidationError(f"unknown window {name!r}, expected one of {WINDOW_NAMES}")
    return sps.get_window(name, frame_len, fftbins=True)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited polyphase resampling to target_rate.

    Duration is preserved to within one sample period; resampling to the
    current rate returns the samples unchanged.
    """
    if target_rate <= 0:
        raise ValidationError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return Waveform(w.samples, w.sample_rate)
    ratio = Fraction(int(target_rate), w.sample_rate)
    out = sps.resample_poly(w.samples, ratio.numerator, ratio.denominator)
    return Waveform(out, int(target_rate))


def _frames(x: np.ndarray, frame_len: int, hop: int, num_frames: int) -> np.ndarray:
    """The first num_frames frames of x, hop samples apart, as a strided view."""
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:num_frames]


def _check_hop(frame_len: int, hop: int) -> None:
    if hop <= 0 or hop > frame_len:
        raise ValidationError(f"need 0 < hop <= frame_len, got hop={hop}, frame_len={frame_len}")


def stft(w: Waveform, frame_len: int = DEFAULT_FRAME_LEN, hop: int = DEFAULT_HOP,
         window: str = DEFAULT_WINDOW) -> np.ndarray:
    """Complex short-time Fourier transform of a waveform.

    Frames are centered with reflect padding, so the output has
    T = ceil(len(samples) / hop) frames of F = frame_len // 2 + 1 bins.
    """
    _check_hop(frame_len, hop)
    win = _get_window(window, frame_len)
    x = w.samples
    num_frames = -(-len(x) // hop)  # ceil division
    if num_frames == 0:
        return np.zeros((0, frame_len // 2 + 1), dtype=np.complex128)
    left = frame_len // 2
    right = max(0, (num_frames - 1) * hop + frame_len - left - len(x))
    padded = np.pad(x, (left, right), mode="reflect")
    return np.fft.rfft(_frames(padded, frame_len, hop, num_frames) * win, axis=1)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Frames summed at `hop` spacing, undoing `stft`'s framing in its padded
    domain, plus one hop of zeros after the last frame so that the centred
    T * hop samples from frame_len // 2 on always exist."""
    frame_len = frames.shape[1]
    out = np.zeros(len(frames) * hop + frame_len)
    for t, frame in enumerate(frames):
        out[t * hop:t * hop + frame_len] += frame
    return out


def _ola_norm(num_frames: int, hop: int, win: np.ndarray) -> np.ndarray:
    """The overlap-added squared window, floored at 1e-12: an overlap-add of
    windowed frames divided by it is the least-squares inverse STFT."""
    squares = np.broadcast_to(win * win, (num_frames, len(win)))
    return np.maximum(_overlap_add(squares, hop), 1e-12)


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int, fmin: float,
                   fmax: float) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft // 2 + 1), peak 1.0.

    Adjacent filters overlap at 50%: each triangle spans from the previous
    center to the next center.
    """
    if n_mels < 1:
        raise ValidationError(f"n_mels must be >= 1, got {n_mels}")
    if not (0 <= fmin < fmax):
        raise ValidationError(f"need 0 <= fmin < fmax, got fmin={fmin}, fmax={fmax}")
    if fmax > sample_rate / 2:
        raise ValidationError(f"fmax {fmax} exceeds Nyquist {sample_rate / 2}")
    freqs = np.linspace(0.0, sample_rate / 2, n_fft // 2 + 1)
    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))[:, None]
    lo, center, hi = pts[:-2], pts[1:-1], pts[2:]
    up = (freqs - lo) / np.maximum(center - lo, 1e-12)
    down = (hi - freqs) / np.maximum(hi - center, 1e-12)
    return np.clip(np.minimum(up, down, out=up), 0.0, None, out=up)


@functools.lru_cache(maxsize=8)
def _mel_basis(sample_rate, n_fft, n_mels, fmin, fmax) -> np.ndarray:
    """Read-only mel_filterbank(...), built once per setting."""
    fb = mel_filterbank(sample_rate, n_fft, n_mels, fmin, fmax)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=8)
def _mel_inverse(sample_rate, n_fft, n_mels, fmin, fmax) -> np.ndarray:
    """Read-only pinv(_mel_basis(...)).T: least-squares map from mel to linear power."""
    inv = np.linalg.pinv(_mel_basis(sample_rate, n_fft, n_mels, fmin, fmax)).T
    inv.flags.writeable = False
    return inv


def analyze(w: Waveform, cfg: AnalysisConfig) -> FeatureMatrix:
    """Waveform to log-mel features, log(max(mel power, LOG_EPS)), with the
    given analysis settings."""
    if w.sample_rate != cfg.sample_rate:
        raise ValidationError(
            f"waveform rate {w.sample_rate} != analysis rate {cfg.sample_rate}; resample first")
    power = np.abs(stft(w, cfg.frame_len, cfg.hop, cfg.window)) ** 2
    fb = _mel_basis(cfg.sample_rate, cfg.frame_len, cfg.n_mels, cfg.fmin, cfg.resolved_fmax())
    data = np.log(np.maximum(power @ fb.T, LOG_EPS))
    return FeatureMatrix(data=data, frame_rate=cfg.frame_rate, kind=FeatureKind.MEL_SPECTROGRAM)


def mel_cepstrum(mel: FeatureMatrix, n_coeffs: int) -> FeatureMatrix:
    """Orthonormal DCT-II of each log-mel frame, truncated to n_coeffs.

    Coefficient 0 carries the overall energy; the untruncated transform is
    exactly invertible.
    """
    if mel.kind != FeatureKind.MEL_SPECTROGRAM:
        raise ValidationError(f"mel_cepstrum expects log-mel input, got kind {mel.kind.name}")
    n_mels = mel.dim
    if not (1 <= n_coeffs <= n_mels):
        raise ValidationError(f"need 1 <= n_coeffs <= {n_mels}, got {n_coeffs}")
    coeffs = _scipy_dct(mel.data, type=2, norm="ortho", axis=1)[:, :n_coeffs]
    return FeatureMatrix(data=coeffs, frame_rate=mel.frame_rate, kind=FeatureKind.MEL_CEPSTRUM)


def estimate_f0(w: Waveform, f0_floor: float = 60.0, f0_ceil: float = 400.0,
                hop: int = DEFAULT_HOP, threshold: float = 0.1) -> F0Track:
    """YIN pitch tracking over centered frames.

    Uses the cumulative-mean-normalized difference function with an absolute
    threshold and parabolic interpolation of the selected lag. Frames where
    the normalized difference never drops below the threshold are unvoiced
    (value 0). Frame count matches ceil(len / hop).
    """
    sr = w.sample_rate
    if not (0 < f0_floor < f0_ceil < sr / 2):
        raise ValidationError(
            f"need 0 < f0_floor < f0_ceil < Nyquist, got floor={f0_floor}, ceil={f0_ceil}")
    if hop <= 0:
        raise ValidationError(f"hop must be positive, got {hop}")
    tau_max = int(np.ceil(sr / f0_floor))
    tau_min = max(2, int(np.floor(sr / f0_ceil)))
    num_frames = -(-len(w.samples) // hop)  # ceil division
    if num_frames == 0:
        return F0Track(values=np.zeros(0), frame_rate=Fraction(sr, hop))

    window = tau_max  # integration window; frames span 2 * tau_max samples
    seg_len = 2 * tau_max
    right = max(0, (num_frames - 1) * hop + seg_len - tau_max - len(w.samples))
    padded = np.pad(w.samples, (tau_max, right), mode="reflect")

    taus = np.arange(1, tau_max + 1)
    segs = _frames(padded, seg_len, hop, num_frames)
    energy = np.cumsum(segs * segs, axis=1)
    e_lag = energy[:, window:window + tau_max] - energy[:, :tau_max]
    corr = np.array([np.correlate(seg, seg[:window], mode="valid")[1:] for seg in segs])
    diff = np.maximum(energy[:, window - 1:window] + e_lag - 2.0 * corr, 0.0)
    denom = np.cumsum(diff, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf = np.where(denom > 0, diff * taus / denom, 1.0)

    # Absolute threshold: the first lag in [tau_min, tau_max] below it, then
    # onwards while the next lag is lower (cmndf column k holds lag k + 1).
    below = cmndf[:, tau_min - 1:] < threshold
    voiced = below.any(axis=1)
    first = tau_min - 1 + below.argmax(axis=1)
    stop = np.ones(cmndf.shape, dtype=bool)
    stop[:, :-1] = ~(cmndf[:, 1:] < cmndf[:, :-1])
    idx = (stop & (np.arange(tau_max) >= first[:, None])).argmax(axis=1)
    # Parabolic refinement around the chosen lag unless it is the last one.
    rows = np.arange(num_frames)
    a, b = cmndf[rows, idx - 1], cmndf[rows, idx]
    c = cmndf[rows, np.minimum(idx + 1, tau_max - 1)]
    bend = a - 2.0 * b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip(0.5 * (a - c) / bend, -1.0, 1.0)
    tau = idx + 1
    refined = np.where((idx < tau_max - 1) & (bend > 0), tau + shift, tau)
    f0 = sr / refined
    values = np.where(voiced & (f0_floor <= f0) & (f0 <= f0_ceil), f0, 0.0)
    return F0Track(values=values, frame_rate=Fraction(sr, hop))


def griffin_lim(mel: FeatureMatrix, cfg: AnalysisConfig,
                iterations: int = DEFAULT_GL_ITERATIONS,
                return_errors: bool = False):
    """Reconstruct a waveform from log-mel features by iterative phase estimation.

    The mel filterbank's cached pseudo-inverse gives linear magnitudes, then
    the classic alternating projection runs with zero initial phase, taking
    the phase of each re-analysed spectrum X as X / |X| (1 where |X| = 0).
    The analysis/synthesis pair used inside the loop is adjoint-consistent, so
    the spectral convergence is non-increasing. Output length is T * hop.

    With return_errors=True, returns (waveform, errors) where errors[i] is the
    spectral convergence norm(|X| - target) / norm(target), or norm(|X|) for
    an all-zero target, after iteration i; it is only computed then.
    """
    if iterations < 1:
        raise ValidationError(f"iterations must be >= 1, got {iterations}")
    _check_hop(cfg.frame_len, cfg.hop)
    if mel.kind != FeatureKind.MEL_SPECTROGRAM:
        raise ValidationError(f"griffin_lim expects log-mel input, got kind {mel.kind.name}")
    inv = _mel_inverse(cfg.sample_rate, cfg.frame_len, mel.dim, cfg.fmin, cfg.resolved_fmax())
    # least-squares inversion of the filterbank to linear power, clipped at zero
    target_mag = np.sqrt(np.clip(np.exp(mel.data) @ inv, 0.0, None))

    num_frames = mel.num_frames
    errors = []
    if num_frames == 0:
        wav = Waveform(np.zeros(0), cfg.sample_rate)
        return (wav, np.array(errors)) if return_errors else wav

    win = _get_window(cfg.window, cfg.frame_len)
    norm, target_norm = _ola_norm(num_frames, cfg.hop, win), np.linalg.norm(target_mag)
    spec = target_mag.astype(np.complex128)  # zero initial phase
    for _ in range(iterations):
        y = _overlap_add(np.fft.irfft(spec, n=cfg.frame_len, axis=1) * win, cfg.hop) / norm
        reanalyzed = np.fft.rfft(_frames(y, cfg.frame_len, cfg.hop, num_frames) * win, axis=1)
        mag = np.abs(reanalyzed)
        if return_errors:
            errors.append(float(np.linalg.norm(mag - target_mag) / (target_norm or 1.0)))
        spec = target_mag * np.divide(reanalyzed, mag, out=np.ones_like(reanalyzed),
                                      where=mag > 0)
    left = cfg.frame_len // 2  # undo stft's centering
    y = _overlap_add(np.fft.irfft(spec, n=cfg.frame_len, axis=1) * win, cfg.hop) / norm
    wav = Waveform(y[left:left + num_frames * cfg.hop], cfg.sample_rate)
    return (wav, np.array(errors)) if return_errors else wav


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or IEEE float32 WAV file."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise DataError(f"audio file not found: {path}")
    except ValueError as exc:
        raise DataError(f"unreadable WAV file {path}: {exc}")
    if data.ndim != 1:
        raise DataError(f"{path}: only mono audio is supported, got shape {data.shape}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DataError(f"{path}: unsupported WAV sample format {data.dtype}")
    return Waveform(samples, int(rate))


def write_wav(path, w: Waveform) -> None:
    """Write a mono IEEE float32 WAV file."""
    with atomic_write(path, "wb") as fh:
        wavfile.write(fh, w.sample_rate, w.samples.astype(np.float32))
