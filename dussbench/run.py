#!/usr/bin/env python3
"""Run one seeded workload of the duss benchmark and print its metrics.

    python3 dussbench/run.py --workload vocoder --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout: it imports `duss` from `src/` there and
writes its scratch files under `dussbench/work/`, which it removes, and its
result and trace files under `dussbench/out/`. The set-up (corpus
synthesis, set-up codec, LM-corpus encoding) runs once, then whole rounds
of both tracks run, one operation after another in a single process with
one BLAS thread, each followed by another set-up repetition, until
`--seconds` have passed; `setup_s` is the median of the set-up times.
Every output is checked. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
run alternates untraced and traced rounds and reports no end-to-end figure.
Exits 1 if a check fails, 2 if it cannot run at all.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Frames per utterance and utterance pairs sampled for the encode and DTW checks.
CHECK_FRAMES = 24
CHECK_PAIRS = 2


def import_program() -> None:
    """Import duss from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "duss", "__init__.py")):
        sys.exit(f"error: no duss sources under {SRC}")
    sys.path.insert(0, SRC)
    import duss
    if os.path.dirname(os.path.dirname(os.path.abspath(duss.__file__))) != SRC:
        sys.exit(f"error: duss was imported from {duss.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the workload's few-second smoke size")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def complete(res, traced_run: bool) -> bool:
    """At least one untraced round, and for a traced run one traced round,
    ran to its end."""
    return bool(res["rounds"]) and (not traced_run or bool(res["walls"][True]))


def run_rounds(pipeline, tracing, runner, work: str, seconds: float, traced_run: bool,
               set_up):
    """Whole rounds until `seconds` of them have passed, each followed by a
    set-up repetition (`set_up()`), so that `setup_s` samples the same
    stretch of the run as the rounds do. A traced run alternates untraced
    and traced rounds, starting untraced, and has at least one of each."""
    per_round = pipeline.ops_per_round(runner.w)
    tracer = tracing.Tracer() if traced_run else None
    res = {"attempted": 0, "failed": 0, "rounds": [], "digests": [],
           "walls": {False: [], True: []}, "tracer": tracer, "first": None}
    elapsed, index = 0.0, 0
    while elapsed < seconds or not complete(res, traced_run):
        if elapsed >= seconds and index >= 4:
            break  # rounds keep failing; stop rather than spin
        traced = traced_run and index % 2 == 1
        r = pipeline.Round(directory=os.path.join(work, f"round{index}"))
        runner.tracer = tracer if traced else None
        res["attempted"] += per_round
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.traced_round():
                    runner.round(r)
            else:
                runner.round(r)
        except pipeline.OpFailed as exc:
            print(f"round {index}: {exc}", file=sys.stderr)
            res["failed"] += per_round - r.ops_done
            r = None
        set_up()
        elapsed += time.perf_counter() - t0
        index += 1
        if r is None:
            continue
        res["walls"][traced].append(r.wall_s)
        res["digests"].append(pipeline.digest_tree(r.directory))
        if not traced:
            res["rounds"].append(r)
        if res["first"] is None:
            res["first"] = r  # kept on disk for the checks
        else:
            shutil.rmtree(r.directory)
    return res


def end_to_end(rounds, setup_times, recon_mcd_db, peak_rss_mb):
    def median_rate(work, phase):
        return statistics.median(r.work[work] / r.seconds[phase] for r in rounds)

    return {
        "setup_s": statistics.median(setup_times),
        "codec_train_s": statistics.median(r.seconds["codec_train"] for r in rounds),
        "resynth_audio_s_per_s": median_rate("resynth_audio_s", "resynth"),
        "eval_audio_s_per_s": median_rate("eval_audio_s", "evaluate"),
        "recon_mcd_db": recon_mcd_db,
        "tune_trials_per_s": median_rate("tune_trials", "tune"),
        "gen_tokens_per_s": median_rate("gen_tokens", "gen_tokens"),
        "gen_audio_s_per_s": median_rate("gen_audio_s", "gen_audio"),
        "peak_rss_mb": peak_rss_mb,
    }


def check_outputs(w, seed, inputs, r, setup_digests, round_digests):
    """Every independent check of checks.py on the first round's outputs;
    later rounds must have written the same bytes. Returns the corpus MCD
    and the codec's usage statistics."""
    import numpy as np

    import checks
    import pipeline
    import workloads
    from duss import containers, dsp, metrics

    checks.require(len(set(setup_digests)) == 1,
                   f"set-up repetitions wrote different bytes: {setup_digests}")
    checks.require(len(set(round_digests)) == 1,
                   f"rounds wrote different bytes: {round_digests}")
    rng = np.random.default_rng([seed, 99])
    path = lambda *parts: os.path.join(r.directory, *parts)

    # Vocoder track: training, encode, resynthesis.
    trained = containers.load_codec(path("codec.duss"))
    usage = [s.usage_counts for s in trained.stages]
    checks.codec_training(usage, trained.stage_train_mse, inputs.train_frames)
    stages = [s.vectors for s in trained.stages]
    analysis = dsp.AnalysisConfig(sample_rate=trained.config.sample_rate,
                                  hop=trained.config.hop,
                                  n_mels=trained.config.feature_dim)
    refs = []
    for utt in inputs.heldout:
        wave = dsp.resample(dsp.read_wav(utt["path"]), analysis.sample_rate)
        feats = dsp.analyze(wave, analysis)
        refs.append((wave, dsp.mel_cepstrum(feats, 13)))
        tokens, _, _ = checks.read_dust(path("tokens", utt["id"] + ".dust"))
        checks.require(tokens.shape == (w.num_quantizers, feats.num_frames),
                       f"{utt['id']}: token shape {tokens.shape}")
        for t in rng.choice(feats.num_frames, size=min(CHECK_FRAMES, feats.num_frames),
                            replace=False):
            checks.brute_force_codes(stages, feats.data[t], tokens[:, t])
        syn = checks.read_wav(path("syn", utt["id"] + ".wav"))
        checks.require(np.all(np.isfinite(syn)), f"{utt['id']}: resynthesis not finite")
        checks.require(len(syn) == tokens.shape[1] * analysis.hop,
                       f"{utt['id']}: resynthesis has {len(syn)} samples, not "
                       f"{tokens.shape[1]} x {analysis.hop}")

    # Evaluation: reported MCD against a plain DTW, identities, mismatch.
    with open(path("eval.json")) as fh:
        report = json.load(fh)
    per_utt = {u["id"]: u for u in report["per_utterance"]}
    checks.require(len(per_utt) == len(inputs.heldout), "evaluate skipped utterances")
    for i in rng.choice(len(inputs.heldout), size=min(CHECK_PAIRS, len(inputs.heldout)),
                        replace=False):
        utt = inputs.heldout[i]
        syn_wave = dsp.resample(dsp.read_wav(path("syn", utt["id"] + ".wav")),
                                analysis.sample_rate)
        syn_cep = dsp.mel_cepstrum(dsp.analyze(syn_wave, analysis), 13)
        mine = checks.dtw_mcd(refs[i][1].data, syn_cep.data)
        checks.require(abs(mine - per_utt[utt["id"]]["mcd_db"]) <= checks.TOL,
                       f"{utt['id']}: evaluate reports MCD {per_utt[utt['id']]['mcd_db']!r}, "
                       f"plain DTW gives {mine!r}")
    wave, cep = refs[0]
    checks.require(abs(metrics.mcd(cep, cep)) <= checks.TOL, "mcd(x, x) != 0")
    f0 = dsp.estimate_f0(wave, hop=analysis.hop)
    checks.require(abs(metrics.log_f0_rmse(f0, f0).rmse) <= checks.TOL,
                   "log-F0 RMSE of a track against itself != 0")
    mismatched = statistics.fmean(
        checks.dtw_mcd(refs[i][1].data, refs[(i + 1) % len(refs)][1].data)
        for i in range(len(refs)))
    checks.require(report["mcd_db"] < mismatched,
                   f"resynthesis MCD {report['mcd_db']:.3f} dB is not below the "
                   f"mismatched-reference MCD {mismatched:.3f} dB")

    # Acoustic track: tuning, sampling, rendering.
    checks.tune_history(path("history.jsonl"), r.stdout["tune"], w.tune_trials)
    vocab = w.lm_vocab + 1
    table = checks.ngram_table(inputs.lm_streams, workloads.LM_ORDER, vocab - 1)
    streams = [g.sequence.tokens[0] for g in r.generated]
    natural = [g.natural for g in r.generated]
    checks.stopped_naturally([len(s) for s in streams], natural, w.gen_max_len)
    checks.drawn_tokens(streams, natural, table, workloads.LM_ORDER, workloads.LM_ALPHA,
                        vocab, w.triple)
    audio_s = checks.generate_outputs(path("gen"), r.stdout["generate"],
                                      w.render_max_len, pipeline.HOP)
    checks.require(abs(audio_s - r.work["gen_audio_s"]) <= checks.TOL,
                   "generate's printed frames disagree with its WAVs")
    return report["mcd_db"], checks.usage_stats(usage)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    import checks
    import pipeline
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)

    work = os.path.join(HERE, "work", f"{w.name}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_times, setup_digests = [], []

        def set_up():
            """One timed set-up repetition; the first one's files are the inputs."""
            directory = os.path.join(work, f"setup{len(setup_times)}")
            gc.collect()
            t0 = time.perf_counter()
            inp = pipeline.setup(w, args.seed, directory)
            setup_times.append(time.perf_counter() - t0)
            setup_digests.append(pipeline.digest_tree(directory))
            if len(setup_times) > 1:
                shutil.rmtree(directory)
            return inp

        inputs = set_up()
        runner = pipeline.Runner(w, args.seed, inputs)
        res = run_rounds(pipeline, tracing, runner, work, args.seconds, bool(args.trace),
                         set_up)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = complete(res, bool(args.trace))
        recon, usage = float("nan"), (0.0, 0.0)
        if correct:
            try:
                recon, usage = check_outputs(w, args.seed, inputs, res["first"],
                                             setup_digests, res["digests"])
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False

        values = None
        if args.trace:
            tracer = res["tracer"]
            tracer.write(os.path.join(out_dir, f"trace-{w.name}-{args.seed}.jsonl"))
            if correct:
                overhead = (statistics.median(res["walls"][True])
                            - statistics.median(res["walls"][False]))
                values = tracing.per_layer(tracer.rounds, len(inputs.heldout), overhead,
                                           *usage)
        elif correct:
            values = end_to_end(res["rounds"], setup_times, recon, peak_rss_mb)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        result = {"correct": correct, "attempted": res["attempted"],
                  "failed": res["failed"],
                  "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                              for m in declared} if values else {}}
        detail = {"workload": w.name, "seed": args.seed, "smoke": args.smoke,
                  "trace": args.trace, "setup_s": setup_times,
                  "setup_digest": setup_digests[0],
                  "round_digest": res["digests"][0] if res["digests"] else None,
                  "rounds": len(res["rounds"]),
                  "round_wall_s": res["walls"][False], "traced_wall_s": res["walls"][True],
                  "per_round": [{"seconds": r.seconds, "work": r.work}
                                for r in res["rounds"]],
                  **result}
        suffix = "-trace" if args.trace else ""
        with open(os.path.join(out_dir, f"result-{w.name}-{args.seed}{suffix}.json"),
                  "w") as fh:
            json.dump(detail, fh, indent=1)
        for name, m in result["metrics"].items():
            print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "work"))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
