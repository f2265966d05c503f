#!/usr/bin/env python3
"""Generation under the shipped sampling presets.

For each acoustic preset, trains a single-stage codec of the preset's size V
and an n-gram token model on a manifest's training split, samples a batch of
sequences at the preset's (k, p, temperature) and reports stop behavior and
measured bitrate. Settings flags and defaults are `duss`'s, and an explicit
flag overrides the preset: `--codebook-size 64` gives every preset one
desk-scale codec. Optionally runs the random-search tuner on each trained
model to compare its pick against the presets.
"""

import argparse

import numpy as np

from duss import cli
from duss.codec import encode, train_codebooks
from duss.sampler import generate
from duss.toylm import train_ngram
from duss.tuner import CentroidScorer, SearchSpace, tune

ACOUSTIC_PRESETS = ("acoustic-1024", "acoustic-512", "acoustic-256")


def sweep(args) -> int:
    configs = [cli.build_pipeline_config(argparse.Namespace(**vars(args), preset=name), args.seed)
               for name in ACOUSTIC_PRESETS]
    # Presets differ only in codec and sampling settings: one codec and LM per codec config.
    _, mels, _ = cli.split_features(args.manifest, configs[0].codec.analysis)
    trained = {}
    for cfg in configs:
        if cfg.codec not in trained:
            codec = train_codebooks(mels, cfg.codec)
            model = train_ngram([encode(codec, mel) for mel in mels], n=cfg.order,
                                alpha=cfg.alpha)
            trained[cfg.codec] = (cfg, codec, model)
            print(f"codec V={cfg.codec.codebook_size}, model vocab {model.vocab_size} "
                  f"over {len(mels)} utterances")

    print(f"{'preset':>14}  {'V':>5}  {'k':>4}  {'p':>6}  {'temp':>6}  "
          f"{'natural':>8}  {'mean len':>9}  {'bps':>8}")
    for preset_index, (name, cfg) in enumerate(zip(ACOUSTIC_PRESETS, configs)):
        _, _, model = trained[cfg.codec]
        results = [generate(model, cfg.sampling, cfg.max_len,
                            np.random.default_rng([args.seed, preset_index, i]),
                            frame_rate=cfg.codec.frame_rate) for i in range(args.count)]
        sequences = [r.sequence for r in results]
        params = cfg.sampling
        print(f"{name:>14}  {cfg.codec.codebook_size:>5}  {params.k:>4}  {params.p:>6.3f}  "
              f"{params.temperature:>6.3f}  {sum(r.natural for r in results):>5}/{args.count:<2}  "
              f"{np.mean([s.num_frames for s in sequences]):>9.1f}  "
              f"{cli.generated_bitrate(sequences):>8.2f}")

    if args.tune_trials > 0:
        for cfg, codec, model in trained.values():
            history = tune(SearchSpace(), CentroidScorer(codec), model,
                           n_trials=args.tune_trials, seed=args.seed, max_len=cfg.max_len)
            cli.print_tuning(history, codec)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("manifest")
    cli._add_overrides(parser, ["codebook_size", "kmeans_iters", "order", "alpha", "max_len"])
    parser.add_argument("--count", type=cli.positive_int, default=10,
                        help="sequences per preset")
    cli._add_seed(parser)
    parser.add_argument("--tune-trials", type=int, default=0,
                        help="if > 0, also run the tuner with this many trials")
    parser.set_defaults(func=sweep)
    return parser


def main(argv=None) -> int:
    return cli.run(build_parser(), argv)


if __name__ == "__main__":
    raise SystemExit(main())
