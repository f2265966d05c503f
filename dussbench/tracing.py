"""Traced mode: spans around every public function of the program's layers.

The wrappers live here, not in the program. `Tracer.install` rebinds every
public function of `duss.dsp`, `codec`, `toylm`, `sampler`, `tuner`,
`metrics` and `containers` (and `CentroidScorer.score`) in every `duss`
module namespace that holds it, so names imported elsewhere, such as
`duss.cli`'s `codec_encode` or `duss.tuner`'s `generate`, are traced too.
Spans stay in memory; `per_layer` derives the per-layer metrics from them
after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

import checks

LAYERS = ("dsp", "codec", "toylm", "sampler", "tuner", "metrics", "containers")
COMMANDS = ("train-codec", "encode", "decode", "evaluate", "train-lm", "tune", "generate")

NAME, START, END, PARENT, FIELDS = range(5)


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


def _rows(x) -> int:
    return len(getattr(x, "data", x))


def _save(a, k, r):
    return {"path": _arg(a, k, 0, "path")}


# What each traced call records besides its times; heavy objects are reduced
# to numbers by `Tracer.finish_round`, outside every span.
_FIELDS = {
    "dsp.analyze": lambda a, k, r: {"frames": r.num_frames},
    "dsp.griffin_lim": lambda a, k, r: {
        "frames": _arg(a, k, 0, "mel").num_frames,
        "gl": (_arg(a, k, 0, "mel"), _arg(a, k, 1, "cfg"),
               r[0] if isinstance(r, tuple) else r)},
    "dsp.estimate_f0": lambda a, k, r: {"frames": len(r.values)},
    "codec.encode": lambda a, k, r: {"frames": _arg(a, k, 1, "features").num_frames},
    "toylm.logits": lambda a, k, r: len(_arg(a, k, 1, "context")),
    "toylm.train_ngram": lambda a, k, r: {"model": r},
    "sampler.generate": lambda a, k, r: {"len": r.sequence.num_frames,
                                         "natural": bool(r.natural)},
    "tuner.tune": lambda a, k, r: {"trials": len(r.trials)},
    "metrics.mcd": lambda a, k, r: {"cells": _rows(_arg(a, k, 0, "ref"))
                                    * _rows(_arg(a, k, 1, "syn"))},
    "metrics.log_f0_rmse": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "ref").values) * len(_arg(a, k, 1, "syn").values)},
}


class Tracer:
    def __init__(self):
        self.rounds: List[list] = []
        self.spans: list = []
        self.stack: List[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        extract = _FIELDS.get(name)
        if extract is None and name.startswith("containers.save_"):
            extract = _save
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*a, **k)
            finally:
                rec[END] = clock()
                stack.pop()
            if extract is not None:
                rec[FIELDS] = extract(a, k, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("duss." + layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "duss" and not name.startswith("duss."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        scorer = importlib.import_module("duss.tuner").CentroidScorer
        self._patched.append((scorer, "score", scorer.score))
        scorer.score = self._wrap("tuner.CentroidScorer.score", scorer.score)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def traced_round(self):
        self.spans, self.stack = [], []
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.finish_round()

    def finish_round(self) -> None:
        """Reduce the fields that hold objects to numbers, then keep the round."""
        dsp = importlib.import_module("duss.dsp")
        for rec in self.spans:
            fields = rec[FIELDS]
            if not isinstance(fields, dict):
                continue
            if "gl" in fields:
                mel, cfg, wave = fields.pop("gl")
                if mel.num_frames:
                    fb = dsp.mel_filterbank(cfg.sample_rate, cfg.frame_len, mel.dim,
                                            cfg.fmin, cfg.resolved_fmax())
                    fields["sc"] = checks.spectral_convergence(
                        mel.data, wave.samples, fb, cfg.frame_len, cfg.hop)
            if "model" in fields:
                model = fields.pop("model")
                stored = _nbytes(model.counts)
                fields["counts_bytes"] = stored
                fields["counts_nonzero"] = int(sum(
                    np.count_nonzero(v) for v in _arrays(model.counts)))
            if "path" in fields:
                fields["bytes"] = os.path.getsize(fields.pop("path"))
        self.rounds.append(self.spans)
        self.spans, self.stack = [], []

    def write(self, path: str) -> None:
        """One JSON line per traced round: the span names, then each span as
        [name index, start, end, parent index, fields]."""
        with open(path, "w") as fh:
            for i, spans in enumerate(self.rounds):
                names = sorted({rec[NAME] for rec in spans})
                index = {n: j for j, n in enumerate(names)}
                fh.write(json.dumps({"round": i, "names": names, "spans": [
                    [index[rec[NAME]], rec[START], rec[END], rec[PARENT], rec[FIELDS]]
                    for rec in spans]}) + "\n")


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def _nbytes(obj) -> int:
    return int(sum(a.nbytes for a in _arrays(obj)))


def per_layer(rounds: List[list], pairs: int, overhead_s: float,
              utilisation: float, perplexity: float) -> Dict[str, float]:
    """The per-layer metrics, each a mean per traced round or a ratio of
    totals over all traced rounds."""
    n = len(rounds)
    total = defaultdict(float)   # seconds per span name
    calls = defaultdict(int)
    sums = defaultdict(float)    # summed fields per span name
    self_s = defaultdict(float)
    sc, lengths, natural = [], [], []
    lloyd_iters = read_wav_in_eval = 0
    for spans in rounds:
        child = defaultdict(float)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        for i, rec in enumerate(spans):
            name, dur, f = rec[NAME], rec[END] - rec[START], rec[FIELDS]
            total[name] += dur
            calls[name] += 1
            if name.startswith("cli."):
                self_s[name] += dur - child[i]
            if name == "toylm.logits":
                sums["ctx"] += f
            elif isinstance(f, dict):
                for key, value in f.items():
                    if key in ("sc", "natural"):
                        continue
                    sums[f"{name}.{key}"] += value
                if "sc" in f:
                    sc.append(f["sc"])
                if name == "sampler.generate":
                    lengths.append(f["len"])
                    natural.append(f["natural"])
            parent = rec[PARENT]
            if name == "codec.nearest_code" and parent >= 0 \
                    and spans[parent][NAME] == "codec.lloyd_kmeans":
                lloyd_iters += 1
            if name == "dsp.read_wav":
                while parent >= 0 and spans[parent][NAME] != "cli.evaluate":
                    parent = spans[parent][PARENT]
                read_wav_in_eval += parent >= 0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    save_s = sum(v for k, v in total.items() if k.startswith("containers.save_"))
    saved = sum(v for k, v in sums.items()
                if k.startswith("containers.save_") and k.endswith(".bytes"))
    out = {
        "dsp.analyze.s": total["dsp.analyze"] / n,
        "dsp.analyze.frames_per_s": rate(sums["dsp.analyze.frames"], total["dsp.analyze"]),
        "dsp.griffin_lim.s": total["dsp.griffin_lim"] / n,
        "dsp.griffin_lim.frames_per_s": rate(sums["dsp.griffin_lim.frames"],
                                             total["dsp.griffin_lim"]),
        "dsp.griffin_lim.final_sc": statistics.fmean(sc) if sc else 0.0,
        "dsp.estimate_f0.s": total["dsp.estimate_f0"] / n,
        "dsp.estimate_f0.frames_per_s": rate(sums["dsp.estimate_f0.frames"],
                                             total["dsp.estimate_f0"]),
        "dsp.read_wav.calls_per_pair": read_wav_in_eval / (calls["cli.evaluate"] * pairs),
        "codec.kmeans_pp_init.s": total["codec.kmeans_pp_init"] / n,
        "codec.lloyd_kmeans.s": total["codec.lloyd_kmeans"] / n,
        "codec.lloyd_kmeans.iters": lloyd_iters / n,
        "codec.encode.frames_per_s": rate(sums["codec.encode.frames"], total["codec.encode"]),
        "codec.utilisation": utilisation,
        "codec.perplexity": perplexity,
        "toylm.logits.calls": calls["toylm.logits"] / n,
        "toylm.logits.us_per_call": 1e6 * rate(total["toylm.logits"], calls["toylm.logits"]),
        "toylm.logits.mean_context_len": rate(sums["ctx"], calls["toylm.logits"]),
        "toylm.train_ngram.s": total["toylm.train_ngram"] / n,
        "toylm.counts_mb": sums["toylm.train_ngram.counts_bytes"] / (n * 1e6),
        "toylm.counts_fill": rate(8 * sums["toylm.train_ngram.counts_nonzero"],
                                  sums["toylm.train_ngram.counts_bytes"]),
        "sampler.sample_token.calls": calls["sampler.sample_token"] / n,
        "sampler.sample_token.us_per_call": 1e6 * rate(total["sampler.sample_token"],
                                                       calls["sampler.sample_token"]),
        "sampler.generate.natural_rate": statistics.fmean(natural) if natural else 0.0,
        "sampler.generate.mean_len": statistics.fmean(lengths) if lengths else 0.0,
        "tuner.tune.s_per_trial": rate(total["tuner.tune"], sums["tuner.tune.trials"]),
        "tuner.score.s": total["tuner.CentroidScorer.score"] / n,
        "metrics.mcd.s": total["metrics.mcd"] / n,
        "metrics.mcd.cells_per_s": rate(sums["metrics.mcd.cells"], total["metrics.mcd"]),
        "metrics.log_f0_rmse.s": total["metrics.log_f0_rmse"] / n,
        "metrics.log_f0_rmse.cells_per_s": rate(sums["metrics.log_f0_rmse.cells"],
                                                total["metrics.log_f0_rmse"]),
        "containers.load_ngram.s": total["containers.load_ngram"] / n,
        "containers.save.s": save_s / n,
        "containers.bytes_written": saved / n,
    }
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = self_s["cli." + cmd] / n
    out["trace.overhead_s"] = overhead_s
    return out
