"""Command-line entry point.

Subcommands cover the two tracks: train-codec / encode / decode for the
vocoder path, train-lm / generate / tune / evaluate for the acoustic path,
plus corpus-filter for data selection. Exit codes: 0 success, 1 usage or
validation error, 2 data error. Diagnostics go to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import containers, corpus, dsp, metrics, sampler, toylm, tuner
from .codec import CodecConfig, RvqCodec, TokenSequence, train_codebooks
from .codec import decode as codec_decode
from .codec import encode as codec_encode
from .errors import DataError, ValidationError, atomic_write, read_lines

# One-flag reproductions of the submitted configurations: the three
# single-stage acoustic systems with their best tuned sampling triples (the
# two-stage 16 kHz vocoder is the defaults).
PRESETS = {
    "acoustic-1024": {"codebook_size": 1024, "num_quantizers": 1,
                      "k": 11, "p": 0.186, "temperature": 0.507},
    "acoustic-512": {"codebook_size": 512, "num_quantizers": 1,
                     "k": 176, "p": 0.521, "temperature": 0.375},
    "acoustic-256": {"codebook_size": 256, "num_quantizers": 1,
                     "k": 181, "p": 0.779, "temperature": 0.351},
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings shared by the subcommands that read settings."""

    codec: CodecConfig
    sampling: sampler.SamplingParams
    order: int = toylm.DEFAULT_ORDER
    alpha: float = toylm.DEFAULT_ALPHA
    n_trials: int = 300
    max_len: int = sampler.DEFAULT_MAX_LEN
    gl_iterations: int = dsp.DEFAULT_GL_ITERATIONS

    def __post_init__(self):
        if self.order < 1 or self.alpha <= 0:
            raise ValidationError("order must be >= 1 and alpha > 0")
        if self.n_trials < 1 or self.max_len < 1 or self.gl_iterations < 1:
            raise ValidationError("n_trials, max_len and gl_iterations must be >= 1")


_SETTINGS_CLASSES = (CodecConfig, dsp.AnalysisConfig, sampler.SamplingParams, PipelineConfig)

# Settings keys, each a CLI flag: the defaulted fields of the settings
# classes, minus those a user does not set (the seed has its own flag,
# feature_dim follows n_mels, the mel band edges stay at 0 Hz and Nyquist).
# Precedence is flags > preset > defaults.
_DEFAULTS = {f.name: f.default for cls in _SETTINGS_CLASSES for f in dataclasses.fields(cls)
             if f.default is not dataclasses.MISSING
             and f.name not in ("seed", "feature_dim", "fmin", "fmax")}
_CONFIG_SCHEMA = {key: type(value) for key, value in _DEFAULTS.items()}


def _diag(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), file=sys.stderr)


def resolve_settings(args) -> Dict:
    """Merge defaults, preset and explicit flags, in that order. The settings
    a command reads are those it has flags for, so `args` has an attribute
    for each."""
    values = dict(_DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValidationError(
                f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    for key in _CONFIG_SCHEMA:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return values


def _fill(cls, values: Dict, **extra):
    """Construct a settings class from the entries of `values` it has fields for."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names}, **extra)


def build_pipeline_config(args, seed: int = 0) -> PipelineConfig:
    """The resolved settings; `seed` reaches only the codec's k-means."""
    v = resolve_settings(args)
    return _fill(PipelineConfig, v,
                 codec=_fill(CodecConfig, v, feature_dim=v["n_mels"], seed=seed),
                 sampling=_fill(sampler.SamplingParams, v))


def _load_manifest_diag(path) -> corpus.CorpusManifest:
    """Load a manifest, warning once per audio file that does not exist."""
    manifest = corpus.load_manifest(path)
    for missing in corpus.missing_audio(manifest, os.path.dirname(os.path.abspath(path))):
        _diag("warning", message=f"{path}: audio file not found: {missing}")
    return manifest


def _analyze_wav(path: str, analysis: dsp.AnalysisConfig) -> tuple:
    """A WAV file resampled to the analysis rate, and its features."""
    wave = dsp.resample(dsp.read_wav(path), analysis.sample_rate)
    return wave, dsp.analyze(wave, analysis)


def split_features(manifest_path, analysis: dsp.AnalysisConfig,
                   train_only: bool = True) -> tuple:
    """A manifest's train split (every entry unless train_only), with each
    WAV's features and seconds, resampled to the analysis rate."""
    manifest = _load_manifest_diag(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = [e for e in manifest.entries if not train_only or e.split == "train"]
    if not entries:
        raise ValidationError(f"{manifest_path}: no {'training ' if train_only else ''}utterances")
    features, durations = [], []
    for entry in entries:
        wave, feats = _analyze_wav(os.path.join(base, entry.audio_path), analysis)
        features.append(feats)
        durations.append(len(wave) / wave.sample_rate)
    return entries, features, durations


def _measured_wav(path: str) -> tuple:
    """A WAV to measure, resampled to the one fixed analysis every codec is
    measured at, and its mel cepstrum; empty is a data error."""
    wave, mel = _analyze_wav(path, dsp.AnalysisConfig())
    if len(wave) == 0:
        raise DataError(f"{path}: no audio samples")
    return wave, dsp.mel_cepstrum(mel, metrics.MCD_COEFFS)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train_codec(args) -> int:
    cfg = build_pipeline_config(args, args.seed)
    entries, features, _ = split_features(args.manifest, cfg.codec.analysis)
    codec = train_codebooks(features, cfg.codec)
    containers.save_codec(args.out, codec)

    for stage, mse in enumerate(codec.stage_train_mse):
        print(f"stage {stage} train mse: {mse:.6g}")
    _diag("codec_written", path=args.out, utterances=len(entries),
          frames=sum(f.num_frames for f in features))
    return 0


def cmd_encode(args) -> int:
    codec = containers.load_codec(args.codec)
    seq = codec_encode(codec, _analyze_wav(args.audio, codec.config.analysis)[1])
    containers.save_tokens(args.out, seq)
    print(f"encoded {seq.num_frames} frames x {seq.num_stages} stages "
          f"(V={seq.vocab_size})")
    _diag("tokens_written", path=args.out, frames=seq.num_frames,
          stages=seq.num_stages)
    return 0


def cmd_decode(args) -> int:
    cfg = build_pipeline_config(args)
    codec = containers.load_codec(args.codec)
    seq = containers.load_tokens(args.tokens)
    decoded = codec_decode(codec, seq)
    wave = dsp.griffin_lim(decoded, codec.config.analysis, iterations=cfg.gl_iterations)
    dsp.write_wav(args.out, wave)
    print(f"decoded {decoded.num_frames} frames -> {len(wave)} samples")
    _diag("wav_written", path=args.out, samples=len(wave))
    return 0


def cmd_train_lm(args) -> int:
    cfg = build_pipeline_config(args)
    corpora = [containers.load_tokens(path) for path in args.tokens]
    model = toylm.train_ngram(corpora, n=cfg.order, alpha=cfg.alpha)
    containers.save_ngram(args.out, model)
    print(f"trained order-{model.order} model, vocab {model.vocab_size} "
          f"(stop id {model.stop_id}), {len(model.counts)} contexts")
    _diag("lm_written", path=args.out, contexts=len(model.counts))
    return 0


def _check_lm_codec(model: toylm.NgramModel, codec: RvqCodec) -> None:
    if model.vocab_size != codec.config.codebook_size + 1:
        raise ValidationError(
            f"model vocabulary {model.vocab_size} does not match codebook size "
            f"{codec.config.codebook_size} + stop")


def generated_bitrate(sequences: List[TokenSequence]) -> float:
    """Measured bitrate of the non-empty token sequences over their own
    durations; 0 when every sequence is empty."""
    nonempty = [s for s in sequences if s.num_frames > 0]
    if not nonempty:
        return 0.0
    return metrics.measured_bitrate(
        nonempty, [s.num_frames / float(s.frame_rate) for s in nonempty])


def print_tuning(history: tuner.TuningHistory, codec: RvqCodec) -> None:
    """The best trial, then the parameter importance or why it is unavailable."""
    best = history.best_trial
    print(f"best: V={codec.config.codebook_size} k={best.params.k} "
          f"p={best.params.p:.3f} temperature={best.params.temperature:.3f} "
          f"score={best.score:.6g}")
    try:
        imp = tuner.param_importance(history)
    except ValidationError as exc:
        print(f"importance: unavailable ({exc})")
    else:
        print(f"importance: k={imp['k']:.3f} p={imp['p']:.3f} "
              f"temperature={imp['temperature']:.3f}")


def cmd_generate(args) -> int:
    cfg = build_pipeline_config(args, args.seed)
    model = containers.load_ngram(args.lm)
    codec = containers.load_codec(args.codec)
    _check_lm_codec(model, codec)
    frame_rate = codec.config.frame_rate

    os.makedirs(args.out_dir, exist_ok=True)
    sequences: List[TokenSequence] = []
    for i in range(args.count):
        rng = np.random.default_rng([args.seed, i])
        result = sampler.generate(model, cfg.sampling, cfg.max_len, rng,
                                  frame_rate=frame_rate)
        seq = result.sequence
        sequences.append(seq)
        stem = os.path.join(args.out_dir, f"gen_{i:03d}")
        containers.save_tokens(stem + ".dust", seq)
        wave = dsp.griffin_lim(codec_decode(codec, seq), codec.config.analysis,
                               iterations=cfg.gl_iterations)
        dsp.write_wav(stem + ".wav", wave)
        print(f"gen_{i:03d}: frames={seq.num_frames} natural={result.natural}")

    rate = generated_bitrate(sequences)
    print(f"measured_bitrate_bps: {rate:.2f}")
    _diag("generated", count=args.count, out_dir=args.out_dir,
          measured_bitrate_bps=rate)
    return 0


def cmd_tune(args) -> int:
    cfg = build_pipeline_config(args, args.seed)
    model = containers.load_ngram(args.lm)
    codec = containers.load_codec(args.codec)
    _check_lm_codec(model, codec)

    history = tuner.tune(tuner.SearchSpace(), tuner.CentroidScorer(codec), model, args.dev_count,
                         n_trials=cfg.n_trials, seed=args.seed, max_len=cfg.max_len)
    tuner.save_history_jsonl(history, args.out)
    print_tuning(history, codec)
    _diag("history_written", path=args.out, trials=len(history.trials),
          best_index=history.best)
    return 0


def cmd_evaluate(args) -> int:
    ref = _load_manifest_diag(args.reference)
    syn = _load_manifest_diag(args.synthesized)
    ref_base = os.path.dirname(os.path.abspath(args.reference))
    syn_base = os.path.dirname(os.path.abspath(args.synthesized))

    syn_by_id = {e.id: e for e in syn.entries}
    pairs = [(e, syn_by_id[e.id]) for e in ref.entries if e.id in syn_by_id]
    if not pairs:
        raise ValidationError("no shared utterance ids between the manifests")

    rows = []
    for ref_entry, syn_entry in pairs:
        (ref_wave, ref_cep), (syn_wave, syn_cep) = (
            _measured_wav(os.path.join(base, entry.audio_path))
            for base, entry in ((ref_base, ref_entry), (syn_base, syn_entry)))
        try:
            mcd_db = metrics.mcd(ref_cep, syn_cep)
            f0_result = metrics.log_f0_rmse(dsp.estimate_f0(ref_wave), dsp.estimate_f0(syn_wave))
        except DataError as exc:
            raise DataError(f"{ref_entry.id}: {exc}") from None
        if f0_result.no_overlap:
            _diag("warning", message=f"{ref_entry.id}: no shared voiced frames")
        rows.append({"id": ref_entry.id, "mcd_db": mcd_db,
                     "log_f0_rmse": None if f0_result.no_overlap else f0_result.rmse,
                     "f0_no_overlap": f0_result.no_overlap})

    if args.tokens:
        bitrate = generated_bitrate([containers.load_tokens(p) for p in args.tokens])
    elif args.codec:
        codec = containers.load_codec(args.codec)
        bitrate = metrics.nominal_bitrate(codec.config.codebook_size,
                                          codec.config.num_quantizers,
                                          codec.config.frame_rate)
    else:
        bitrate = 0.0

    # Log-F0 RMSE is measured only where a pair shares a voiced frame; with
    # no such pair there is no figure to report.
    f0_rmses = [r["log_f0_rmse"] for r in rows if not r["f0_no_overlap"]]
    log_f0 = float(np.mean(f0_rmses)) if f0_rmses else None
    report = {"bitrate_bps": bitrate,
              "mcd_db": float(np.mean([r["mcd_db"] for r in rows])),
              "log_f0_rmse": log_f0, "num_utterances": len(rows), "per_utterance": rows}
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    f0_text = "n/a" if log_f0 is None else f"{log_f0:.4f}"
    print(f"{'Bitrate (bps)':>14}  {'MCD (dB)':>10}  {'Log F0 RMSE':>12}")
    print(f"{bitrate:>14.2f}  {report['mcd_db']:>10.4f}  {f0_text:>12}")
    _diag("evaluated", utterances=len(rows), f0_utterances=len(f0_rmses),
          mcd_db=report["mcd_db"], log_f0_rmse=log_f0)
    return 0


def cmd_corpus_filter(args) -> int:
    if args.min_score is not None and not args.scores:
        raise ValidationError("--min-score requires --scores CSV")
    if args.min_score is None and (args.scores or args.style_scores_out):
        raise ValidationError("--scores and --style-scores-out require --min-score")
    manifest = _load_manifest_diag(args.manifest)
    excluded = set(args.exclude_styles.split(",")) - {""} if args.exclude_styles else set()
    filtered, removed = corpus.filter_styles(manifest, excluded)
    for tag, count in removed.items():
        print(f"excluded style {tag!r}: removed {count}")

    if args.min_score is not None:
        table = _read_score_csv(args.scores)
        for entry in filtered.entries:
            if entry.id not in table:
                _diag("warning", message=f"{entry.id}: dropped, scorer failed: "
                                         f"no score for utterance {entry.id}")
        filtered, scored = corpus.filter_by_score(filtered, table, args.min_score)
        if args.style_scores_out:
            corpus.write_style_scores(scored, args.style_scores_out)

    # A relative audio path is relative to its manifest's directory: re-root it at the output's.
    in_dir, out_dir = (os.path.dirname(os.path.abspath(p)) for p in (args.manifest, args.out))
    filtered = corpus.CorpusManifest(entries=[
        e if os.path.isabs(e.audio_path) else dataclasses.replace(
            e, audio_path=os.path.relpath(os.path.join(in_dir, e.audio_path), out_dir))
        for e in filtered.entries])
    corpus.save_manifest(filtered, args.out)
    print(f"kept {len(filtered)} of {len(manifest)} utterances")
    _diag("manifest_written", path=args.out, kept=len(filtered),
          total=len(manifest))
    return 0


def _read_score_csv(path) -> Dict[str, float]:
    """Two-column CSV id,score with an optional header row; scores must be finite."""
    table, seen = {}, {}
    for line_no, line in enumerate(read_lines(path, "scores file"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{line_no}: expected id,score")
        if line_no == 1 and parts[1].strip() == "score":
            continue
        try:
            score = float(parts[1])
            if not np.isfinite(score):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad score {parts[1]!r}")
        utt_id = parts[0].strip()
        if utt_id in seen:
            raise DataError(f"{path}:{line_no}: id {utt_id!r} repeats line {seen[utt_id]}")
        table[utt_id], seen[utt_id] = score, line_no
    return table


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the validation path
    (exit code 1) instead of its default exit(2)."""

    def error(self, message):
        raise ValidationError(message)


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="global seed")


def _add_settings(parser: argparse.ArgumentParser, keys, seed: bool = False,
                  preset: bool = False) -> None:
    """An override flag per settings key the command reads, plus --seed and
    --preset for the commands that read them."""
    if seed:
        _add_seed(parser)
    if preset:
        parser.add_argument("--preset", default=None,
                            help=f"named configuration: {', '.join(sorted(PRESETS))}")
    _add_overrides(parser, keys)


def _add_overrides(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        kind = _CONFIG_SCHEMA[key]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                            default=None, help=f"override {key}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="duss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-codec", help="fit the quantizer on a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output codec file")
    _add_settings(p, ["codebook_size", "num_quantizers", "hop", "sample_rate", "frame_len",
                      "n_mels", "window", "kmeans_iters"], seed=True, preset=True)
    p.set_defaults(func=cmd_train_codec)

    p = sub.add_parser("encode", help="audio to token file")
    p.add_argument("codec")
    p.add_argument("audio")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="token file to WAV")
    p.add_argument("codec")
    p.add_argument("tokens")
    p.add_argument("--out", required=True)
    _add_settings(p, ["gl_iterations"])
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train-lm", help="fit the token model on token files")
    p.add_argument("tokens", nargs="+")
    p.add_argument("--out", required=True)
    _add_settings(p, ["order", "alpha"])
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("generate", help="sample token sequences and decode them")
    p.add_argument("lm")
    p.add_argument("codec")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=positive_int, default=1)
    _add_settings(p, ["k", "p", "temperature", "max_len", "gl_iterations"], seed=True,
                  preset=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tune", help="random-search the sampling parameters")
    p.add_argument("lm")
    p.add_argument("codec")
    p.add_argument("--out", required=True, help="JSON-lines trial history")
    p.add_argument("--dev-count", type=positive_int, default=tuner.DEFAULT_DEV_COUNT,
                   help="generations scored per trial")
    _add_settings(p, ["n_trials", "max_len"], seed=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="metric report for reference vs synthesized")
    p.add_argument("reference", help="reference manifest")
    p.add_argument("synthesized", help="synthesized manifest")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--codec", default=None,
                   help="codec file; reports its nominal bitrate")
    p.add_argument("--tokens", nargs="*", default=None,
                   help="token files; reports their measured bitrate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("corpus-filter", help="style and score based selection")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--exclude-styles", default=None)
    p.add_argument("--min-score", type=float, default=None)
    p.add_argument("--scores", default=None, help="CSV of id,score")
    p.add_argument("--style-scores-out", default=None,
                   help="write kept (style_tag, score) rows as CSV")
    p.set_defaults(func=cmd_corpus_filter)

    return parser


def run(parser: argparse.ArgumentParser, argv=None) -> int:
    """Parse argv and call the chosen `func`. A validation error exits 1, a
    data or OS error exits 2, each as one JSON `error` line on stderr."""
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        _diag("error", kind="validation", message=str(exc))
        return 1
    except (DataError, OSError) as exc:
        _diag("error", kind="data", message=str(exc))
        return 2


def main(argv=None) -> int:
    return run(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
