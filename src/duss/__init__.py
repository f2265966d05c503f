"""Discrete speech unit toolkit: mel analysis, residual vector quantization,
token-level generation with combined top-k / top-p / temperature sampling,
black-box sampling-parameter tuning, and objective evaluation."""

from .codec import (
    Codebook,
    CodecConfig,
    RvqCodec,
    TokenSequence,
    decode,
    encode,
    train_codebooks,
)
from .containers import (
    load_codec,
    load_ngram,
    load_tokens,
    save_codec,
    save_ngram,
    save_tokens,
)
from .corpus import (
    CorpusManifest,
    UtteranceEntry,
    filter_by_score,
    filter_styles,
    load_manifest,
    save_manifest,
)
from .dsp import (
    AnalysisConfig,
    F0Track,
    FeatureKind,
    FeatureMatrix,
    Waveform,
    analyze,
    estimate_f0,
    griffin_lim,
    mel_cepstrum,
    mel_filterbank,
    read_wav,
    resample,
    stft,
    write_wav,
)
from .errors import DataError, DussError, ValidationError
from .metrics import (
    LogF0Result,
    log_f0_rmse,
    mcd,
    measured_bitrate,
    nominal_bitrate,
)
from .sampler import (
    GenerationResult,
    SamplingParams,
    apply_temperature,
    filter_candidates,
    generate,
    sample_token,
)
from .toylm import NgramModel, train_ngram
from .tuner import (
    CentroidScorer,
    SearchSpace,
    Trial,
    TuningHistory,
    param_importance,
    tune,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "CentroidScorer", "Codebook", "CodecConfig",
    "CorpusManifest", "DataError", "DussError", "F0Track", "FeatureKind",
    "FeatureMatrix", "GenerationResult", "LogF0Result", "NgramModel",
    "RvqCodec", "SamplingParams", "SearchSpace", "TokenSequence", "Trial",
    "TuningHistory", "UtteranceEntry", "ValidationError", "Waveform",
    "analyze", "apply_temperature", "decode", "encode",
    "estimate_f0", "filter_by_score", "filter_candidates", "filter_styles",
    "generate", "griffin_lim", "load_codec", "load_manifest",
    "load_ngram", "load_tokens", "log_f0_rmse", "mcd", "measured_bitrate",
    "mel_cepstrum", "mel_filterbank", "nominal_bitrate", "param_importance",
    "read_wav", "resample", "sample_token", "save_codec",
    "save_manifest", "save_ngram", "save_tokens", "stft", "train_codebooks",
    "train_ngram", "tune", "write_wav",
]
