#!/usr/bin/env python3
"""Reconstruction quality versus codebook size.

Trains one RVQ codec per requested codebook size on the training split of a
manifest, round-trips every utterance through encode/decode, and reports mean
mel-cepstral distortion next to the nominal and measured bitrates. Larger
codebooks should show lower distortion at higher bitrate. Settings flags and
defaults are `duss`'s; audio is resampled as in `duss train-codec`.
"""

import argparse
import dataclasses
import json

import numpy as np

from duss import cli
from duss.codec import decode, encode, train_codebooks
from duss.dsp import mel_cepstrum
from duss.errors import ValidationError, atomic_write
from duss.metrics import MCD_COEFFS, mcd, measured_bitrate, nominal_bitrate


def parse_sizes(text: str):
    sizes = [int(part) for part in text.split(",") if part.strip()]
    if not sizes or any(v < 2 for v in sizes):
        raise argparse.ArgumentTypeError(f"bad codebook size list: {text!r}")
    return sizes


def sweep(args) -> int:
    cfg = cli.build_pipeline_config(args, args.seed)
    entries, mels, durations = cli.split_features(args.manifest, cfg.codec.analysis,
                                                  train_only=False)
    train_mels = [mel for entry, mel in zip(entries, mels) if entry.split == "train"]
    if not train_mels:
        raise ValidationError("manifest has no train-split utterances")

    rows = []
    for vocab_size in args.codebook_sizes:
        codec_cfg = dataclasses.replace(cfg.codec, codebook_size=vocab_size)
        codec = train_codebooks(train_mels, codec_cfg)
        token_files = [encode(codec, mel) for mel in mels]
        distortions = [mcd(mel_cepstrum(mel, MCD_COEFFS),
                           mel_cepstrum(decode(codec, tokens), MCD_COEFFS))
                       for mel, tokens in zip(mels, token_files)]
        rows.append({
            "codebook_size": vocab_size,
            "mean_mcd_db": float(np.mean(distortions)),
            "nominal_bitrate_bps": nominal_bitrate(
                vocab_size, codec_cfg.num_quantizers, codec_cfg.frame_rate),
            "measured_bitrate_bps": measured_bitrate(token_files, durations),
        })

    print(f"{'V':>6}  {'MCD (dB)':>9}  {'nominal bps':>12}  {'measured bps':>13}")
    for row in rows:
        print(f"{row['codebook_size']:>6}  {row['mean_mcd_db']:>9.4f}  "
              f"{row['nominal_bitrate_bps']:>12.2f}  "
              f"{row['measured_bitrate_bps']:>13.2f}")

    if args.out:
        with atomic_write(args.out) as fh:
            json.dump({"rows": rows, "seed": args.seed,
                       "num_quantizers": cfg.codec.num_quantizers}, fh, indent=2)
            fh.write("\n")
        print(f"report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("manifest")
    parser.add_argument("--codebook-sizes", type=parse_sizes, default=[8, 64, 256])
    cli._add_overrides(parser, ["num_quantizers", "kmeans_iters"])
    cli._add_seed(parser)
    parser.add_argument("--out", help="optional JSON report path")
    parser.set_defaults(func=sweep)
    return parser


def main(argv=None) -> int:
    return cli.run(build_parser(), argv)


if __name__ == "__main__":
    raise SystemExit(main())
