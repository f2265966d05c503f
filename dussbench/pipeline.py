"""Set-up and one timed round of the two tracks.

The set-up writes the workload's inputs: a training and a held-out corpus
of WAV files with their manifests, a single-stage set-up codec, and the LM
corpus encoded with it. A round then drives the tracks the way a user does,
through `duss.cli.main` in-process and the library calls `scripts/` make:
train-codec -> encode/decode -> evaluate, and train-lm -> tune ->
sampler.generate -> generate. Each operation starts when the previous one
ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.io import wavfile

from duss import cli, codec, containers, dsp, sampler

import synth
from workloads import EVAL_REPEATS, LM_ALPHA, LM_ORDER, TUNE_DEV_COUNT, Workload

HOP = 480
ANALYSIS = dsp.AnalysisConfig(sample_rate=synth.SAMPLE_RATE, hop=HOP)
POOL_GAINS = (0.5, 1.0, 2.0)
CHUNK = 64  # pool entries per analysed chunk


@dataclass
class Inputs:
    """What the set-up wrote, plus the facts the checks need about it."""

    train_manifest: str
    heldout_manifest: str
    heldout: List[dict]           # id, path, samples
    train_frames: int
    setup_codec: str
    lm_token_files: List[str]
    lm_streams: List[np.ndarray]  # the LM corpus, for the independent n-gram counts


def _write_manifest(path: str, rows: List[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_corpus(rng, directory: str, prefix: str, count: int, seconds: float,
                  split: str) -> List[dict]:
    os.makedirs(os.path.join(directory, "audio"), exist_ok=True)
    rows = []
    for i in range(count):
        uid = f"{prefix}_{i:03d}"
        rel = os.path.join("audio", uid + ".wav")
        samples = synth.utterance(rng, seconds).astype(np.float32)
        wavfile.write(os.path.join(directory, rel), synth.SAMPLE_RATE, samples)
        rows.append({"id": uid, "audio_path": rel, "style_tag": "read",
                     "duration": len(samples) / synth.SAMPLE_RATE,
                     "transcript": None, "split": split, "samples": len(samples)})
    return rows


def setup(w: Workload, seed: int, directory: str) -> Inputs:
    """Synthesise the corpora, train the set-up codec and encode the LM corpus."""
    rng = np.random.default_rng([seed, 2024])
    os.makedirs(directory)
    train = _write_corpus(rng, directory, "train", w.train_utts, w.train_seconds, "train")
    heldout = _write_corpus(rng, directory, "ref", w.heldout_utts, w.heldout_seconds, "test")
    train_manifest = os.path.join(directory, "train.jsonl")
    heldout_manifest = os.path.join(directory, "ref.jsonl")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "samples"} for r in rows]
    _write_manifest(train_manifest, strip(train))
    _write_manifest(heldout_manifest, strip(heldout))

    # The LM corpus: a pool of syllables at three loudness levels, analysed
    # as one recording (in chunks, to bound memory) and encoded by a
    # single-stage set-up codec trained on the first 1.25 V frames at unit gain.
    # Each syllable is trimmed to whole hops so that it owns whole frames.
    sylls = [s[:len(s) // HOP * HOP] for s in
             (synth.syllable(rng) for _ in range(w.pool_syllables))]
    entries = [g * s for g in POOL_GAINS for s in sylls]
    recording = [dsp.analyze(dsp.Waveform(np.concatenate(entries[i:i + CHUNK]),
                                          synth.SAMPLE_RATE), ANALYSIS)
                 for i in range(0, len(entries), CHUNK)]
    edges = np.cumsum([0] + [len(e) // HOP for e in entries])
    start = edges[POOL_GAINS.index(1.0) * len(sylls)]
    fit = np.concatenate([f.data for f in recording])[start:start + w.lm_vocab * 5 // 4]
    cfg = codec.CodecConfig(codebook_size=w.lm_vocab, num_quantizers=1, hop=HOP,
                            sample_rate=synth.SAMPLE_RATE, feature_dim=ANALYSIS.n_mels,
                            kmeans_iters=5, seed=seed)
    setup_codec = codec.train_codebooks(
        dsp.FeatureMatrix(fit, recording[0].frame_rate, recording[0].kind), cfg)
    setup_codec_path = os.path.join(directory, "setup_codec.duss")
    containers.save_codec(setup_codec_path, setup_codec)
    tokens = np.concatenate([codec.encode(setup_codec, f).tokens[0] for f in recording])
    blocks = [tokens[a:b] for a, b in zip(edges[:-1], edges[1:])]

    lm_dir = os.path.join(directory, "lm")
    os.makedirs(lm_dir)
    streams, files, total = [], [], 0
    while total < w.lm_tokens:
        picks = rng.integers(len(blocks), size=int(rng.integers(*w.lm_utt_syllables)))
        stream = np.concatenate([blocks[i] for i in picks])
        path = os.path.join(lm_dir, f"u_{len(files):04d}.dust")
        containers.save_tokens(path, codec.TokenSequence(
            tokens=stream[None, :], vocab_size=w.lm_vocab, frame_rate=cfg.frame_rate))
        streams.append(stream)
        files.append(path)
        total += len(stream)

    return Inputs(
        train_manifest=train_manifest,
        heldout_manifest=heldout_manifest,
        heldout=[{"id": r["id"], "path": os.path.join(directory, r["audio_path"]),
                  "samples": r["samples"]} for r in heldout],
        train_frames=sum(math.ceil(r["samples"] / HOP) for r in train),
        setup_codec=setup_codec_path, lm_token_files=files, lm_streams=streams)


def digest_tree(directory: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class OpFailed(Exception):
    """An operation of a round returned a non-zero exit code or raised."""


@dataclass
class Round:
    """Wall times and work of one round, plus the outputs the checks read."""

    directory: str
    seconds: Dict[str, float] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)
    stdout: Dict[str, str] = field(default_factory=dict)
    generated: list = field(default_factory=list)
    ops_done: int = 0
    wall_s: float = 0.0


def ops_per_round(w: Workload) -> int:
    # train-codec, encode + decode per held-out utterance, evaluate
    # EVAL_REPEATS times, train-lm, tune, one sampler.generate per stream,
    # generate.
    return 1 + 2 * w.heldout_utts + EVAL_REPEATS + 1 + 1 + w.gen_streams + 1


class Runner:
    """Runs rounds of one workload over one set-up's inputs."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs):
        self.w = w
        self.seed = seed
        self.inputs = inputs
        self.tracer = None  # set to a tracing.Tracer for traced rounds

    def _cli(self, r: Round, argv: List[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span("cli." + argv[0]) if self.tracer
                else contextlib.nullcontext())
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            raise OpFailed(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
        if rc != 0:
            raise OpFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        r.ops_done += 1
        return out.getvalue()

    @contextlib.contextmanager
    def _phase(self, r: Round, name: str):
        # Collect first, so that a collection owed to earlier phases does
        # not land in this one's time.
        gc.collect()
        start = time.perf_counter()
        yield
        r.seconds[name] = time.perf_counter() - start

    def round(self, r: Round) -> Round:
        """Run every operation of one round into r.directory; raises OpFailed
        at the first operation that fails, with r.ops_done counting the ones
        that succeeded."""
        w, inp, seed = self.w, self.inputs, str(self.seed)
        directory = r.directory
        os.makedirs(directory)
        path = lambda *parts: os.path.join(directory, *parts)
        start = time.perf_counter()

        with self._phase(r, "codec_train"):
            r.stdout["train-codec"] = self._cli(r, [
                "train-codec", inp.train_manifest, "--out", path("codec.duss"),
                "--codebook-size", str(w.codebook_size),
                "--num-quantizers", str(w.num_quantizers),
                "--kmeans-iters", str(w.kmeans_iters), "--seed", seed])

        os.makedirs(path("tokens"))
        os.makedirs(path("syn"))
        with self._phase(r, "resynth"):
            for utt in inp.heldout:
                tok = path("tokens", utt["id"] + ".dust")
                self._cli(r, ["encode", path("codec.duss"), utt["path"], "--out", tok])
                self._cli(r, ["decode", path("codec.duss"), tok,
                              "--out", path("syn", utt["id"] + ".wav")])
        r.work["resynth_audio_s"] = sum(u["samples"] for u in inp.heldout) / synth.SAMPLE_RATE

        _write_manifest(path("syn.jsonl"), [
            {"id": u["id"], "audio_path": os.path.join("syn", u["id"] + ".wav"),
             "style_tag": "read", "duration": u["samples"] / synth.SAMPLE_RATE,
             "transcript": None, "split": "test"} for u in inp.heldout])
        with self._phase(r, "evaluate"):
            for _ in range(EVAL_REPEATS):
                r.stdout["evaluate"] = self._cli(r, [
                    "evaluate", inp.heldout_manifest, path("syn.jsonl"),
                    "--out", path("eval.json"), "--codec", path("codec.duss")])
        r.work["eval_audio_s"] = EVAL_REPEATS * r.work["resynth_audio_s"]

        self._cli(r, ["train-lm", *inp.lm_token_files, "--out", path("lm.duss"),
                      "--order", str(LM_ORDER), "--alpha", str(LM_ALPHA)])

        with self._phase(r, "tune"):
            r.stdout["tune"] = self._cli(r, [
                "tune", path("lm.duss"), inp.setup_codec, "--out", path("history.jsonl"),
                "--n-trials", str(w.tune_trials), "--max-len", str(w.tune_max_len),
                "--dev-count", str(TUNE_DEV_COUNT), "--seed", seed])
        r.work["tune_trials"] = w.tune_trials

        model = containers.load_ngram(path("lm.duss"))
        params = sampler.SamplingParams(*w.triple)
        drawn = 0
        with self._phase(r, "gen_tokens"):
            for i in range(w.gen_streams):
                try:
                    res = sampler.generate(model, params, w.gen_max_len,
                                           np.random.default_rng([self.seed, i]))
                except Exception as exc:
                    raise OpFailed(f"sampler.generate raised "
                                   f"{type(exc).__name__}: {exc}") from exc
                r.ops_done += 1
                r.generated.append(res)
                drawn += res.sequence.num_frames + int(res.natural)
        r.work["gen_tokens"] = drawn
        del model

        k, p, temperature = w.triple
        with self._phase(r, "gen_audio"):
            r.stdout["generate"] = self._cli(r, [
                "generate", path("lm.duss"), inp.setup_codec, "--out-dir", path("gen"),
                "--count", str(w.render_count), "--seed", seed,
                "--k", str(k), "--p", str(p), "--temperature", str(temperature),
                "--max-len", str(w.render_max_len),
                "--gl-iterations", str(w.render_gl_iterations)])
        frames = sum(int(line.split("frames=")[1].split()[0])
                     for line in r.stdout["generate"].splitlines()
                     if line.startswith("gen_"))
        r.work["gen_audio_s"] = frames * HOP / synth.SAMPLE_RATE

        r.wall_s = time.perf_counter() - start
        return r
