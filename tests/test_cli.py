"""End-to-end command-line tests: every subcommand runs in-process through
main(), checking outputs, exit codes, and determinism."""

import argparse
import dataclasses
import errno
import json
import os
import re
import shlex
import shutil
import struct

import numpy as np
import pytest

from duss import cli, containers, corpus, dsp, tuner
from duss.codec import TokenSequence
from duss.codec import encode as codec_encode
from duss.dsp import read_wav
from duss.errors import DataError
from duss.sampler import SamplingParams

from conftest import FRAME_RATE, load_script, write_corpus

ENTRIES = [("utt_000", 220.0, "read", "train"),
           ("utt_001", 300.0, "read", "train"),
           ("utt_002", 380.0, "whisper", "train"),
           ("utt_003", 440.0, "whisper", "train"),
           ("utt_004", 520.0, "laughing", "train"),
           ("utt_005", 600.0, "read", "train"),
           ("utt_006", 260.0, "read", "dev"),
           ("utt_007", 340.0, "read", "test")]

TRAIN_ARGS = ["--codebook-size", "16", "--num-quantizers", "2",
              "--kmeans-iters", "15", "--seed", "3"]

# The commands that read settings.
CONFIG_COMMANDS = ["decode", "generate", "train-codec", "train-lm", "tune"]

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def diag_messages(err: str):
    return [json.loads(line) for line in err.splitlines() if line.strip()]


def last_error(err: str) -> dict:
    errors = [d for d in diag_messages(err) if d.get("event") == "error"]
    assert errors, f"no error diagnostic in: {err!r}"
    return errors[-1]


GHOST_ROW = json.dumps({"id": "ghost", "audio_path": "audio/ghost.wav", "style_tag": "read",
                        "duration": 0.6, "transcript": None, "split": "train"})


def with_missing_audio(workspace, tmp_path) -> str:
    """The workspace manifest plus a row whose WAV does not exist, written next
    to the workspace audio (the copy's directory gets a link to it)."""
    os.symlink(os.path.join(workspace["root"], "audio"), tmp_path / "audio")
    manifest = str(tmp_path / "missing.jsonl")
    with open(workspace["manifest"]) as src, open(manifest, "w") as dst:
        dst.write(src.read() + GHOST_ROW + "\n")
    return manifest


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Corpus, trained codec, one encoded utterance, and a toy LM."""
    root = tmp_path_factory.mktemp("cliws")
    manifest = write_corpus(root, ENTRIES)
    paths = {
        "root": root,
        "manifest": manifest,
        "codec": str(root / "codec.duss"),
        "tokens": str(root / "utt0.dust"),
        "lm": str(root / "lm.duss"),
        "audio0": str(root / "audio" / "utt_000.wav"),
        # two utterances sharing the corpus ids, pitched up by a quarter
        "shifted": write_corpus(root / "shifted", [(utt_id, 1.25 * freq, style, split)
                                                   for utt_id, freq, style, split
                                                   in ENTRIES[:2]]),
    }
    assert cli.main(["train-codec", manifest, "--out", paths["codec"],
                     *TRAIN_ARGS]) == 0
    assert cli.main(["encode", paths["codec"], paths["audio0"],
                     "--out", paths["tokens"]]) == 0
    assert cli.main(["train-lm", paths["tokens"], "--out", paths["lm"]]) == 0
    return paths


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert last_error(capsys.readouterr().err)["kind"] == "validation"

    def test_missing_required_flag(self, workspace, capsys):
        assert cli.main(["train-codec", workspace["manifest"]]) == 1
        capsys.readouterr()

    def test_unknown_preset(self, workspace, capsys):
        rc = cli.main(["train-codec", workspace["manifest"], "--out", "x.duss",
                       "--preset", "acoustic-9000"])
        assert rc == 1
        assert "acoustic-9000" in last_error(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("argv", [
        lambda ws, out: ["encode", ws["codec"], ws["audio0"], "--out", out,
                         "--preset", "acoustic-256"],
        lambda ws, out: ["train-lm", ws["tokens"], "--out", out, "--seed", "1"],
        lambda ws, out: ["tune", ws["lm"], ws["codec"], "--out", out,
                         "--preset", "acoustic-256"],
        lambda ws, out: ["corpus-filter", ws["manifest"], "--out", out, "--seed", "1"],
        lambda ws, out: ["corpus-filter", ws["manifest"], "--out", out,
                         "--config", out + ".cfg"],
        lambda ws, out: ["encode", ws["codec"], ws["audio0"], "--out", out,
                         "--frame-len", "1024"],
        lambda ws, out: ["encode", ws["codec"], ws["audio0"], "--out", out,
                         "--config", out + ".cfg"],
        lambda ws, out: ["decode", ws["codec"], ws["tokens"], "--out", out,
                         "--window", "hamming"],
        lambda ws, out: ["generate", ws["lm"], ws["codec"], "--out-dir", out,
                         "--frame-len", "1024"],
        lambda ws, out: ["decode", ws["codec"], ws["tokens"], "--out", out + ".wav",
                         "--features-out", out],
        lambda ws, out: ["decode", ws["codec"], ws["tokens"], "--out", out,
                         "--reference", ws["audio0"]],
        lambda ws, out: ["tune", ws["lm"], ws["codec"], "--out", out,
                         "--importance-bins", "3"],
        lambda ws, out: ["evaluate", ws["manifest"], ws["shifted"], "--out", out,
                         "--hop", "1"],
        lambda ws, out: ["evaluate", ws["manifest"], ws["shifted"], "--out", out,
                         "--n-coeffs", "5"],
        lambda ws, out: ["evaluate", ws["manifest"], ws["shifted"], "--out", out,
                         "--config", out + ".cfg"],
        lambda ws, out: ["tune", ws["lm"], ws["codec"], "--out", out, "--k-min", "2"],
        lambda ws, out: ["train-codec", ws["manifest"], "--out", out,
                         "--config", out + ".cfg"],
        lambda ws, out: ["decode", ws["codec"], ws["tokens"], "--out", out,
                         "--config", out + ".cfg"],
        lambda ws, out: ["train-codec", ws["manifest"], "--out", out,
                         "--exclude-styles", "whisper"],
    ], ids=["encode-preset", "train-lm-seed", "tune-preset", "corpus-filter-seed",
            "corpus-filter-config", "encode-frame-len", "encode-config", "decode-window",
            "generate-frame-len", "decode-features-out", "decode-reference",
            "tune-importance-bins", "evaluate-hop", "evaluate-n-coeffs", "evaluate-config",
            "tune-k-min", "train-codec-config", "decode-config", "train-codec-exclude-styles"])
    def test_flag_the_command_does_not_read_is_rejected(self, workspace, tmp_path, capsys,
                                                        argv):
        out = str(tmp_path / "out")
        assert cli.main(argv(workspace, out)) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "unrecognized arguments" in json.loads(line)["message"]
        assert not os.path.exists(out)

    @staticmethod
    def _subparsers():
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def _settings_flags(self):
        """The settings keys each subcommand takes a flag for."""
        return {name: {a.dest for a in p._actions} & set(cli._CONFIG_SCHEMA)
                for name, p in self._subparsers().items()}

    def test_every_settings_key_is_read_by_a_subcommand(self):
        assert set().union(*self._settings_flags().values()) == set(cli._CONFIG_SCHEMA)

    def test_eighteen_settings_flags_over_five_commands(self):
        """18 (command, key) settings pairs, over the five commands that read settings."""
        flags = {name: keys for name, keys in self._settings_flags().items() if keys}
        assert sorted(flags) == CONFIG_COMMANDS
        assert sum(len(keys) for keys in flags.values()) == 18

    def test_readme_keys_table_matches_the_parser(self):
        """README's table of the keys each command reads lists exactly each
        settings command's settings flags."""
        with open(README) as fh:
            readme = fh.read()
        table = readme.split("The keys each command reads:", 1)[1].split("\n\n")[1]
        rows = {}
        for line in table.splitlines()[2:]:
            command, keys = (cell.strip(" `") for cell in line.strip("|").split("|"))
            rows[command] = {key.strip(" `") for key in keys.split(",")}
        flags = self._settings_flags()
        assert rows == {name: flags[name] for name in CONFIG_COMMANDS}

    def test_every_flag_is_in_the_ledger(self):
        """Each subcommand's and each track script's flags, listed in full:
        adding or removing any flag is an edit of this ledger."""
        ledger = {
            "train-codec": {"--out", "--seed", "--preset", "--codebook-size",
                            "--num-quantizers", "--hop", "--sample-rate", "--frame-len",
                            "--n-mels", "--window", "--kmeans-iters"},
            "encode": {"--out"},
            "decode": {"--out", "--gl-iterations"},
            "train-lm": {"--out", "--order", "--alpha"},
            "generate": {"--out-dir", "--count", "--seed", "--preset", "--k", "--p",
                         "--temperature", "--max-len", "--gl-iterations"},
            "tune": {"--out", "--dev-count", "--seed", "--n-trials", "--max-len"},
            "evaluate": {"--out", "--codec", "--tokens"},
            "corpus-filter": {"--out", "--exclude-styles", "--min-score", "--scores",
                              "--style-scores-out"},
            "run_vocoder_track": {"--codebook-sizes", "--num-quantizers", "--kmeans-iters",
                                  "--seed", "--out"},
            "run_acoustic_track": {"--codebook-size", "--kmeans-iters", "--order", "--alpha",
                                   "--max-len", "--count", "--seed", "--tune-trials"},
        }
        parsers = {**self._subparsers(),
                   **{name: load_script(name).build_parser()
                      for name in ("run_vocoder_track", "run_acoustic_track")}}
        flags = {name: {opt for a in p._actions for opt in a.option_strings}
                 - {"-h", "--help"} for name, p in parsers.items()}
        assert flags == ledger

    def test_readme_commands_parse(self, monkeypatch):
        """Each `duss` and `python3 scripts/` command in README's shell blocks,
        backslash continuations joined, parses: a flag README shows that its
        command does not take fails here. Parsing stops each command before it
        opens a file."""
        class Parsed(Exception):
            pass

        parse_args = argparse.ArgumentParser.parse_args

        def parse_only(parser, args=None, namespace=None):
            parse_args(parser, args, namespace)
            raise Parsed

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_only)
        with open(README) as fh:
            shell = "".join(re.findall(r"```sh\n(.*?)```", fh.read(), re.S))
        names, unparsed = set(), []
        for line in shell.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["duss"]:
                main, name, args = cli.main, argv[1], argv[1:]
            elif argv[:1] == ["python3"] and argv[1].startswith("scripts/"):
                name = os.path.basename(argv[1])
                main, args = load_script(name[:-len(".py")]).main, argv[2:]
            else:
                continue
            try:
                main(args)
            except Parsed:
                names.add(name)
            else:
                unparsed.append(line.strip())
        assert unparsed == []
        assert names == set(self._subparsers()) | {
            "make_demo_corpus.py", "run_vocoder_track.py", "run_acoustic_track.py"}

    def test_codec_commands_take_no_analysis_flags(self):
        """A loaded codec carries its analysis settings; no flag restates them."""
        flags = self._settings_flags()
        for name in ("encode", "decode", "generate", "tune"):
            assert not flags[name] & {"frame_len", "window", "hop", "sample_rate", "n_mels"}, name

    def test_parser_is_built_once_and_keeps_no_state(self, workspace, tmp_path, capsys):
        """main reuses one parser; a flag given to one call does not reach the next."""
        assert cli.build_parser() is cli.build_parser()
        parser = cli.build_parser()
        tune = ["tune", workspace["lm"], workspace["codec"], "--out", "h.jsonl"]
        assert parser.parse_args([*tune, "--n-trials", "5"]).n_trials == 5
        assert parser.parse_args(tune).n_trials is None
        lm = str(tmp_path / "lm.duss")
        for flags, order in ((["--order", "2"], 2), ([], 3)):
            assert cli.main(["train-lm", workspace["tokens"], "--out", lm, *flags]) == 0
            assert containers.load_ngram(lm).order == order
        capsys.readouterr()

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["train-codec", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "c.duss")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("reader, argv", [
        (corpus.load_manifest, lambda ws, bad, out: ["train-codec", bad, "--out", out]),
        (cli._read_score_csv, lambda ws, bad, out: [
            "corpus-filter", ws["manifest"], "--out", out, "--min-score", "0",
            "--scores", bad]),
    ], ids=["manifest", "scores"])
    def test_non_utf8_text_input_is_data_error(self, workspace, tmp_path, capsys,
                                               reader, argv):
        bad = str(tmp_path / "utf16.txt")
        with open(bad, "wb") as fh:
            fh.write(b"\xff\xfei\x00d\x00")
        with pytest.raises(DataError, match="utf16.txt"):
            reader(bad)
        assert cli.main(argv(workspace, bad, str(tmp_path / "out"))) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "error" and event["kind"] == "data"
        assert bad in event["message"]


def output_bytes(path: str):
    """A file's bytes, or a directory's (name, bytes) pairs."""
    if os.path.isdir(path):
        return [(name, open(os.path.join(path, name), "rb").read())
                for name in sorted(os.listdir(path))]
    return open(path, "rb").read()


# Per command that reads settings: its argv without settings, a key it reads
# with two values that give different outputs, and a key it does not read.
SCOPE_CASES = {
    "train-codec": (lambda ws, out: ["train-codec", ws["manifest"], "--out", out,
                                     "--kmeans-iters", "5"],
                    "codebook_size", ("8", "12"), ("gl_iterations", "10")),
    "decode": (lambda ws, out: ["decode", ws["codec"], ws["tokens"], "--out", out],
               "gl_iterations", ("2", "3"), ("frame_len", "1024")),
    "train-lm": (lambda ws, out: ["train-lm", ws["tokens"], "--out", out],
                 "order", ("2", "1"), ("num_quantizers", "1")),
    "generate": (lambda ws, out: ["generate", ws["lm"], ws["codec"], "--out-dir", out,
                                  "--seed", "1", "--max-len", "20"],
                 "gl_iterations", ("1", "2"), ("codebook_size", "1")),
    "tune": (lambda ws, out: ["tune", ws["lm"], ws["codec"], "--out", out,
                              "--dev-count", "1", "--max-len", "20", "--seed", "0"],
             "n_trials", ("2", "3"), ("k", "5")),
}


class TestConfigScope:
    @pytest.mark.parametrize("command", sorted(SCOPE_CASES))
    def test_read_key_takes_effect(self, workspace, tmp_path, capsys, command):
        """Two values of the key's flag give two outputs."""
        argv, key, values, _ = SCOPE_CASES[command]
        outputs = []
        for value in values:
            out = str(tmp_path / value)
            assert cli.main(argv(workspace, out) + ["--" + key.replace("_", "-"), value]) == 0
            outputs.append(output_bytes(out))
        capsys.readouterr()
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", sorted(SCOPE_CASES))
    def test_unread_key_is_rejected_before_any_output(self, workspace, tmp_path, capsys,
                                                      command):
        argv, _, _, (unread, unread_value) = SCOPE_CASES[command]
        flag = "--" + unread.replace("_", "-")
        out = tmp_path / "out"
        assert cli.main(argv(workspace, str(out)) + [flag, unread_value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        event = json.loads(line)
        assert (event["event"], event["kind"]) == ("error", "validation")
        assert event["message"] == f"unrecognized arguments: {flag} {unread_value}"
        assert not out.exists()


class TestSettings:
    def _args(self, **overrides):
        ns = argparse.Namespace(preset=None)
        for key in cli._CONFIG_SCHEMA:
            setattr(ns, key, None)
        for key, value in overrides.items():
            setattr(ns, key, value)
        return ns

    def test_defaults(self):
        assert cli.resolve_settings(self._args()) == cli._DEFAULTS

    def test_preset_overrides_defaults(self):
        values = cli.resolve_settings(self._args(preset="acoustic-512"))
        assert values["codebook_size"] == 512
        assert values["num_quantizers"] == 1
        assert (values["k"], values["p"], values["temperature"]) == (176, 0.521, 0.375)
        assert values["hop"] == cli._DEFAULTS["hop"]

    def test_flag_overrides_preset(self):
        values = cli.resolve_settings(self._args(preset="acoustic-512", codebook_size=32))
        assert values["codebook_size"] == 32
        assert values["k"] == 176  # preset value survives for untouched keys

    def test_flag_overrides_defaults(self):
        values = cli.resolve_settings(self._args(codebook_size=4))
        assert values["codebook_size"] == 4
        assert values["temperature"] == cli._DEFAULTS["temperature"]

    def test_every_key_reaches_pipeline_config(self):
        """Each settings key, set by its flag, lands in every part of the
        built config that has a field of that name."""
        values = {"codebook_size": 8, "num_quantizers": 3, "hop": 240,
                  "sample_rate": 24000, "kmeans_iters": 7, "frame_len": 1024,
                  "window": "hamming", "n_mels": 40, "k": 9, "p": 0.5,
                  "temperature": 0.7, "order": 2, "alpha": 0.3, "n_trials": 11,
                  "max_len": 12, "gl_iterations": 13}
        assert values.keys() == cli._CONFIG_SCHEMA.keys()
        assert all(values[key] != cli._DEFAULTS[key] for key in values)
        cfg = cli.build_pipeline_config(self._args(**values), seed=5)
        parts = (cfg, cfg.codec, cfg.codec.analysis, cfg.sampling)
        for key, value in values.items():
            holders = [part for part in parts if hasattr(part, key)]
            assert holders, key
            assert all(getattr(part, key) == value for part in holders), key
        assert cfg.codec.feature_dim == values["n_mels"]
        assert cfg.codec.seed == 5

    def test_settings_classes_agree_on_shared_defaults(self):
        for cls in cli._SETTINGS_CLASSES:
            for f in dataclasses.fields(cls):
                if f.name in cli._DEFAULTS:
                    assert f.default == cli._DEFAULTS[f.name], (cls.__name__, f.name)


class TestTrainCodec:
    def test_smoke_prints_monotone_stage_mse(self, workspace, tmp_path, capsys):
        out = tmp_path / "codec.duss"
        rc = cli.main(["train-codec", workspace["manifest"], "--out", str(out),
                       *TRAIN_ARGS])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        mse = [float(line.rsplit(":", 1)[1]) for line in lines
               if line.startswith("stage")]
        assert len(mse) == 2
        assert mse[1] <= mse[0]
        codec = containers.load_codec(out)
        assert codec.config.codebook_size == 16

    def test_missing_audio_warns_before_the_read_fails(self, workspace, tmp_path, capsys):
        manifest = with_missing_audio(workspace, tmp_path)
        rc = cli.main(["train-codec", manifest, "--out", str(tmp_path / "c.duss")])
        assert rc == 2
        warning, error = diag_messages(capsys.readouterr().err)
        assert warning == {"event": "warning",
                           "message": f"{manifest}: audio file not found: audio/ghost.wav"}
        assert error["kind"] == "data" and "ghost.wav" in error["message"]

    def test_only_excluded_styles_errors(self, workspace, tmp_path, capsys):
        """A manifest that corpus-filter left without train rows trains nothing."""
        kept, out = tmp_path / "kept.jsonl", tmp_path / "c.duss"
        assert cli.main(["corpus-filter", workspace["manifest"], "--out", str(kept),
                         "--exclude-styles", "read,whisper,laughing"]) == 0
        assert cli.main(["train-codec", str(kept), "--out", str(out)]) == 1
        assert "no training utterances" in last_error(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_style_exclusion_reduces_training_set(self, workspace, tmp_path, capsys):
        """corpus-filter re-roots the kept audio paths at its output, in another
        directory here, so train-codec finds them and trains on the kept rows only."""
        kept, out = tmp_path / "sel" / "kept.jsonl", tmp_path / "c.duss"
        kept.parent.mkdir()
        assert cli.main(["corpus-filter", workspace["manifest"], "--out", str(kept),
                         "--exclude-styles", "whisper"]) == 0
        assert cli.main(["train-codec", str(kept), "--out", str(out), *TRAIN_ARGS]) == 0
        diags = diag_messages(capsys.readouterr().err)
        assert [d["event"] for d in diags] == ["manifest_written", "codec_written"]
        assert diags[1]["utterances"] == 4

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.duss", tmp_path / "b.duss"
        for out in (a, b):
            assert cli.main(["train-codec", workspace["manifest"],
                             "--out", str(out), *TRAIN_ARGS]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_hop_beyond_frame_len_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "c.duss"
        assert cli.main(["train-codec", workspace["manifest"], "--out", str(out),
                         "--hop", "4096"]) == 1
        assert "hop=4096, frame_len=2048" in last_error(capsys.readouterr().err)["message"]
        assert not out.exists()


class TestEncodeDecode:
    def test_encode_output(self, workspace, capsys):
        seq = containers.load_tokens(workspace["tokens"])
        assert seq.num_stages == 2
        assert seq.vocab_size == 16
        assert seq.num_frames == 20

    def test_encode_rerun_byte_identical(self, workspace, tmp_path, capsys):
        out = tmp_path / "again.dust"
        assert cli.main(["encode", workspace["codec"], workspace["audio0"],
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == open(workspace["tokens"], "rb").read()

    def test_encode_uses_the_codec_analysis(self, workspace, tmp_path, capsys):
        """A codec trained on 1024-sample Hamming frames encodes with them,
        with no flag restating them."""
        codec_path, tokens = tmp_path / "hamming.duss", tmp_path / "hamming.dust"
        assert cli.main(["train-codec", workspace["manifest"], "--out", str(codec_path),
                         *TRAIN_ARGS, "--frame-len", "1024", "--window", "hamming"]) == 0
        assert cli.main(["encode", str(codec_path), workspace["audio0"],
                         "--out", str(tokens)]) == 0
        capsys.readouterr()
        codec = containers.load_codec(codec_path)
        assert (codec.config.frame_len, codec.config.window) == (1024, "hamming")
        wave = dsp.resample(read_wav(workspace["audio0"]), codec.config.sample_rate)
        want = codec_encode(codec, dsp.analyze(wave, codec.config.analysis))
        np.testing.assert_array_equal(containers.load_tokens(tokens).tokens, want.tokens)

    def test_decode_round_trip_mcd_below_threshold(self, workspace, tmp_path, capsys):
        """`evaluate` measures the decoded WAV against the utterance it encodes."""
        out = tmp_path / "rec.wav"
        rc = cli.main(["decode", workspace["codec"], workspace["tokens"], "--out", str(out)])
        assert rc == 0
        assert "decoded 20 frames -> 9600 samples" in capsys.readouterr().out.splitlines()
        assert len(read_wav(out)) == 9600
        rec = tmp_path / "rec.jsonl"
        rec.write_text(json.dumps({"id": "utt_000", "audio_path": "rec.wav", "style_tag": "read",
                                   "duration": 0.6, "transcript": None, "split": "train"}) + "\n")
        report = tmp_path / "report.json"
        assert cli.main(["evaluate", workspace["manifest"], str(rec), "--out", str(report)]) == 0
        capsys.readouterr()
        result = json.loads(report.read_text())
        assert result["num_utterances"] == 1
        # regression bound from the reference run of this fixture (46.5743)
        assert result["mcd_db"] < 53.0

    def test_decode_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (a, b):
            assert cli.main(["decode", workspace["codec"], workspace["tokens"],
                             "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_decode_empty_tokens_zero_length_wav(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.dust"
        containers.save_tokens(empty, TokenSequence(
            tokens=np.zeros((2, 0), dtype=np.int64), vocab_size=16,
            frame_rate=FRAME_RATE))
        out = tmp_path / "empty.wav"
        rc = cli.main(["decode", workspace["codec"], str(empty), "--out", str(out)])
        assert rc == 0
        assert "decoded 0 frames -> 0 samples" in capsys.readouterr().out
        assert len(read_wav(out)) == 0

    def test_decode_rejects_a_feature_file_as_codec(self, workspace, tmp_path, capsys):
        """Feature matrices (kind 1) are no longer a container kind."""
        features = tmp_path / "mel.duss"
        features.write_bytes(containers._HEADERS[containers.MAGIC_DUSS].pack(
            b"DUSS", containers.VERSION, 1, 1, 1, 100, 3) + bytes(8))
        rc = cli.main(["decode", str(features), workspace["tokens"],
                       "--out", str(tmp_path / "x.wav")])
        assert rc == 2
        assert last_error(capsys.readouterr().err)["message"] == (
            f"{features}: found kind 1, expected 5")

    def test_decode_rejects_zero_gl_iterations(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.dust"
        containers.save_tokens(empty, TokenSequence(
            tokens=np.zeros((2, 0), dtype=np.int64), vocab_size=16,
            frame_rate=FRAME_RATE))
        rc = cli.main(["decode", workspace["codec"], str(empty),
                       "--out", str(tmp_path / "x.wav"), "--gl-iterations", "0"])
        assert rc == 1
        assert "gl_iterations" in last_error(capsys.readouterr().err)["message"]

    def test_decode_rejects_version_1_codec(self, workspace, tmp_path, capsys):
        old = tmp_path / "old.duss"
        buf = bytearray(open(workspace["codec"], "rb").read())
        struct.pack_into("<I", buf, 4, 1)  # the header version field
        old.write_bytes(bytes(buf))
        rc = cli.main(["decode", str(old), workspace["tokens"],
                       "--out", str(tmp_path / "x.wav")])
        assert rc == 2
        assert "unsupported DUSS version 1" in last_error(capsys.readouterr().err)["message"]

    def test_token_over_vocab_rejected_naming_position(self, workspace, tmp_path,
                                                       capsys):
        bad = tmp_path / "bad.dust"
        shutil.copy(workspace["tokens"], bad)
        buf = bytearray(bad.read_bytes())
        struct.pack_into("<I", buf, 8, 2)  # shrink the header V field
        bad.write_bytes(bytes(buf))
        rc = cli.main(["decode", workspace["codec"], str(bad),
                       "--out", str(tmp_path / "x.wav")])
        assert rc == 2
        message = last_error(capsys.readouterr().err)["message"]
        assert "at stage" in message and "frame" in message

    def test_decode_renders_generated_single_stream(self, workspace, tmp_path, capsys):
        """`decode` renders `generate`'s one-stream tokens through the two-stage
        codec exactly as `generate` did."""
        gen, out = tmp_path / "gen", tmp_path / "again.wav"
        assert cli.main(["generate", workspace["lm"], workspace["codec"], "--out-dir",
                         str(gen), "--seed", "7", "--max-len", "60",
                         "--gl-iterations", "5"]) == 0
        assert containers.load_tokens(gen / "gen_000.dust").num_frames > 0
        assert cli.main(["decode", workspace["codec"], str(gen / "gen_000.dust"),
                         "--out", str(out), "--gl-iterations", "5"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (gen / "gen_000.wav").read_bytes()

    def test_codec_token_shape_mismatch(self, workspace, tmp_path, capsys):
        single = tmp_path / "q1.duss"
        assert cli.main(["train-codec", workspace["manifest"], "--out", str(single),
                         "--codebook-size", "16", "--num-quantizers", "1",
                         "--kmeans-iters", "5", "--seed", "0"]) == 0
        rc = cli.main(["decode", str(single), workspace["tokens"],
                       "--out", str(tmp_path / "x.wav")])
        assert rc == 1
        capsys.readouterr()


class TestTrainLm:
    def test_reports_vocab_and_contexts(self, workspace, tmp_path, capsys):
        out = tmp_path / "lm.duss"
        rc = cli.main(["train-lm", workspace["tokens"], "--out", str(out)])
        assert rc == 0
        assert "trained order-3 model, vocab 17 (stop id 16)" in capsys.readouterr().out
        assert out.read_bytes() == open(workspace["lm"], "rb").read()

    def test_infinite_alpha_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "lm.duss"
        rc = cli.main(["train-lm", workspace["tokens"], "--out", str(out), "--alpha", "inf"])
        assert rc == 1
        assert "alpha must be positive and finite" in last_error(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_two_stage_file_trains_its_stage_zero_stream(self, workspace, tmp_path, capsys):
        """`generate` renders every id through stage 0, so a two-stage token file
        trains the same model as its stage-0 stream alone."""
        seq = containers.load_tokens(workspace["tokens"])
        assert seq.num_stages == 2
        stage_zero, out = tmp_path / "stage0.dust", tmp_path / "lm.duss"
        containers.save_tokens(stage_zero, TokenSequence(
            tokens=seq.tokens[:1], vocab_size=seq.vocab_size, frame_rate=seq.frame_rate))
        assert cli.main(["train-lm", str(stage_zero), "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == open(workspace["lm"], "rb").read()

    def test_multiple_token_files(self, workspace, tmp_path, capsys):
        rc = cli.main(["train-lm", workspace["tokens"], workspace["tokens"],
                       "--out", str(tmp_path / "lm2.duss")])
        assert rc == 0
        capsys.readouterr()


class TestGenerate:
    def test_count_below_one_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "gen"
        rc = cli.main(["generate", workspace["lm"], workspace["codec"],
                       "--out-dir", str(out), "--count", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "--count: must be >= 1, got 0" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_writes_tokens_and_wavs(self, workspace, tmp_path, capsys):
        out = tmp_path / "gen"
        rc = cli.main(["generate", workspace["lm"], workspace["codec"],
                       "--out-dir", str(out), "--count", "3", "--seed", "7",
                       "--max-len", "60"])
        assert rc == 0
        stdout = capsys.readouterr().out
        for i in range(3):
            assert (out / f"gen_{i:03d}.dust").exists()
            assert (out / f"gen_{i:03d}.wav").exists()
            assert f"gen_{i:03d}: frames=" in stdout
        assert "measured_bitrate_bps:" in stdout
        for i in range(3):
            seq = containers.load_tokens(out / f"gen_{i:03d}.dust")
            if seq.num_frames:
                assert seq.tokens.max() < 16

    def test_fixed_seed_identical_token_files(self, workspace, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main(["generate", workspace["lm"], workspace["codec"],
                             "--out-dir", str(d), "--count", "2", "--seed", "11",
                             "--max-len", "40"]) == 0
        capsys.readouterr()
        for name in ("gen_000.dust", "gen_001.dust", "gen_000.wav", "gen_001.wav"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_argmax_decoding_gives_identical_wavs(self, workspace, tmp_path, capsys):
        out = tmp_path / "det"
        rc = cli.main(["generate", workspace["lm"], workspace["codec"],
                       "--out-dir", str(out), "--count", "3", "--seed", "5",
                       "--k", "1", "--max-len", "40"])
        assert rc == 0
        capsys.readouterr()
        first = (out / "gen_000.wav").read_bytes()
        assert (out / "gen_001.wav").read_bytes() == first
        assert (out / "gen_002.wav").read_bytes() == first

    @pytest.mark.parametrize("argv", [
        lambda ws, out: ["generate", ws["lm"], ws["codec"], "--out-dir", out,
                         "--count", "2", "--max-len", "40", "--gl-iterations", "2"],
        lambda ws, out: ["tune", ws["lm"], ws["codec"], "--out", out, "--n-trials", "4",
                         "--dev-count", "1", "--max-len", "30"],
    ], ids=["generate", "tune"])
    def test_seed_is_the_flag_else_zero(self, workspace, tmp_path, monkeypatch, capsys,
                                        argv):
        """No environment variable reaches the seed: a command writes the same
        bytes with DUSS_SEED set as without it, and those of --seed 0; another
        --seed writes others."""
        outputs = []
        for name, env, flags in (("plain", None, []), ("env", "13", []),
                                 ("zero", None, ["--seed", "0"]),
                                 ("other", None, ["--seed", "13"])):
            if env is None:
                monkeypatch.delenv("DUSS_SEED", raising=False)
            else:
                monkeypatch.setenv("DUSS_SEED", env)
            out = str(tmp_path / name)
            assert cli.main(argv(workspace, out) + flags) == 0
            outputs.append(output_bytes(out))
        capsys.readouterr()
        assert outputs[0] == outputs[1] == outputs[2] != outputs[3]

    def test_preset_triple_runs(self, workspace, tmp_path, capsys):
        out = tmp_path / "preset"
        rc = cli.main(["generate", workspace["lm"], workspace["codec"],
                       "--out-dir", str(out), "--count", "2", "--seed", "1",
                       "--preset", "acoustic-1024", "--max-len", "40"])
        assert rc == 0
        capsys.readouterr()

    def test_lm_codec_vocab_mismatch(self, workspace, tmp_path, capsys):
        other = tmp_path / "v8.duss"
        assert cli.main(["train-codec", workspace["manifest"], "--out", str(other),
                         "--codebook-size", "8", "--num-quantizers", "2",
                         "--kmeans-iters", "5", "--seed", "0"]) == 0
        rc = cli.main(["generate", workspace["lm"], str(other),
                       "--out-dir", str(tmp_path / "g")])
        assert rc == 1
        assert "vocabulary" in last_error(capsys.readouterr().err)["message"]


class TestTune:
    def test_prints_best_and_importance(self, workspace, tmp_path, capsys):
        out = tmp_path / "hist.jsonl"
        rc = cli.main(["tune", workspace["lm"], workspace["codec"],
                       "--out", str(out), "--n-trials", "25", "--dev-count", "2",
                       "--max-len", "50", "--seed", "9"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert any(line.startswith("best: V=16 k=") for line in stdout.splitlines())
        assert any(line.startswith("importance: k=") for line in stdout.splitlines())
        assert len(out.read_text().splitlines()) == 25

    def test_importance_unavailable_for_few_trials(self, workspace, tmp_path, capsys):
        rc = cli.main(["tune", workspace["lm"], workspace["codec"],
                       "--out", str(tmp_path / "h.jsonl"), "--n-trials", "5",
                       "--dev-count", "1", "--max-len", "30", "--seed", "0"])
        assert rc == 0
        assert "importance: unavailable (needs >= 20" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--dev-count"])
    def test_count_below_one_rejected_before_any_trial(self, workspace, tmp_path,
                                                       capsys, flag):
        out = tmp_path / "h.jsonl"
        rc = cli.main(["tune", workspace["lm"], workspace["codec"],
                       "--out", str(out), "--n-trials", "5", flag, "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert f"{flag}: must be >= 1, got 0" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli.main(["tune", workspace["lm"], workspace["codec"],
                             "--out", str(out), "--n-trials", "8",
                             "--dev-count", "1", "--max-len", "30",
                             "--seed", "4"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_self_evaluation_is_zero(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["evaluate", workspace["manifest"], workspace["manifest"],
                       "--codec", workspace["codec"], "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "0.0000" in table
        report = json.loads(out.read_text())
        assert report["mcd_db"] == 0.0
        assert report["log_f0_rmse"] == 0.0
        assert report["num_utterances"] == len(ENTRIES)
        assert report["bitrate_bps"] == pytest.approx(266.67, abs=0.01)

    def test_bitrate_from_token_files(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["evaluate", workspace["manifest"], workspace["manifest"],
                       "--tokens", workspace["tokens"], "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["bitrate_bps"] > 0

    def test_bitrate_skips_empty_token_files(self, workspace, tmp_path, capsys):
        """An empty token file adds neither bits nor seconds to the measured bitrate."""
        empty = tmp_path / "empty.dust"
        containers.save_tokens(empty, TokenSequence(
            tokens=np.zeros((2, 0), dtype=np.int64), vocab_size=16,
            frame_rate=FRAME_RATE))
        reports = []
        for tokens in ([str(empty), workspace["tokens"]], [workspace["tokens"]]):
            out = tmp_path / "report.json"
            assert cli.main(["evaluate", workspace["manifest"], workspace["shifted"],
                             "--tokens", *tokens, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["bitrate_bps"])
        capsys.readouterr()
        assert reports[0] == reports[1] > 0

    def test_no_shared_ids(self, workspace, tmp_path, capsys):
        other = write_corpus(tmp_path, [("zz_0", 200.0, "read", "train")])
        rc = cli.main(["evaluate", workspace["manifest"], other])
        assert rc == 1
        assert "shared" in last_error(capsys.readouterr().err)["message"]

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert cli.main(["evaluate", workspace["manifest"],
                             workspace["manifest"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("empty_side", ["reference", "synthesized"])
    def test_empty_wav_is_a_data_error(self, workspace, tmp_path, capsys, empty_side):
        """A zero-sample WAV on either side exits 2 naming its file, and no
        report is written."""
        manifest = write_corpus(tmp_path, ENTRIES[:2])
        empty = tmp_path / "audio" / "utt_001.wav"
        dsp.write_wav(empty, dsp.Waveform(np.zeros(0), dsp.DEFAULT_SAMPLE_RATE))
        out = tmp_path / "report.json"
        manifests = [manifest, workspace["manifest"]]
        if empty_side == "synthesized":
            manifests.reverse()
        assert cli.main(["evaluate", *manifests, "--out", str(out)]) == 2
        error = last_error(capsys.readouterr().err)
        assert error["kind"] == "data"
        assert error["message"] == f"{empty}: no audio samples"
        assert not out.exists()


class TestCorpusFilter:
    def test_style_exclusion_counts(self, workspace, tmp_path, capsys):
        out = tmp_path / "kept.jsonl"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out),
                       "--exclude-styles", "whisper"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "excluded style 'whisper': removed 2" in stdout
        assert "kept 6 of 8 utterances" in stdout
        from duss.corpus import load_manifest
        kept = load_manifest(out)
        assert "whisper" not in {e.style_tag for e in kept.entries}

    def test_score_threshold_with_csv(self, workspace, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = ["id,score"] + [f"{e[0]},{i / 10}" for i, e in enumerate(ENTRIES)]
        scores.write_text("\n".join(rows) + "\n")
        out = tmp_path / "kept.jsonl"
        dist = tmp_path / "style_scores.csv"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out),
                       "--min-score", "0.35", "--scores", str(scores),
                       "--style-scores-out", str(dist)])
        assert rc == 0
        capsys.readouterr()
        from duss.corpus import load_manifest
        kept = load_manifest(out)
        assert kept.ids == [e[0] for e in ENTRIES[4:]]
        assert dist.read_text().splitlines()[0] == "style_tag,score"

    def test_missing_score_drops_with_warning(self, workspace, tmp_path, capsys):
        scores = tmp_path / "partial.csv"
        scores.write_text("id,score\nutt_000,5.0\nutt_001,-1.0\n")
        out = tmp_path / "kept.jsonl"
        dist = tmp_path / "style_scores.csv"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out),
                       "--min-score", "0.0", "--scores", str(scores),
                       "--style-scores-out", str(dist)])
        assert rc == 0
        warned = [d["message"] for d in diag_messages(capsys.readouterr().err)
                  if d["event"] == "warning"]
        assert warned == [f"{e[0]}: dropped, scorer failed: no score for utterance {e[0]}"
                          for e in ENTRIES[2:]]
        from duss.corpus import load_manifest
        assert load_manifest(out).ids == ["utt_000"]
        assert dist.read_text().splitlines() == ["style_tag,score", "read,5.0", "read,-1.0"]

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_data_error(self, workspace, tmp_path, capsys, score):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"id,score\nutt_000,1.0\nutt_001,{score}\n")
        out, dist = tmp_path / "kept.jsonl", tmp_path / "style_scores.csv"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out),
                       "--min-score", "0.0", "--scores", str(scores),
                       "--style-scores-out", str(dist)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"] == f"{scores}:3: bad score '{score}'"
        assert not out.exists() and not dist.exists()

    def test_repeated_score_id_is_data_error(self, workspace, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,score\nutt_000,1.0\nutt_001,2.0\nutt_000,-3.0\n")
        out, dist = tmp_path / "kept.jsonl", tmp_path / "style_scores.csv"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out),
                       "--min-score", "0.0", "--scores", str(scores),
                       "--style-scores-out", str(dist)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"] == f"{scores}:4: id 'utt_000' repeats line 2"
        assert not out.exists() and not dist.exists()

    @pytest.mark.parametrize("flags", [["--scores", "s.csv"], ["--style-scores-out", "d.csv"],
                                       ["--scores", "s.csv", "--style-scores-out", "d.csv"]],
                             ids=["scores", "style-scores-out", "both"])
    def test_score_flags_require_min_score(self, workspace, tmp_path, capsys, flags):
        out = tmp_path / "kept.jsonl"
        rc = cli.main(["corpus-filter", workspace["manifest"], "--out", str(out)]
                      + [str(tmp_path / f) if f.endswith(".csv") else f for f in flags])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "event": "error", "kind": "validation",
            "message": "--scores and --style-scores-out require --min-score"}
        assert not out.exists() and not (tmp_path / "d.csv").exists()

    def test_missing_audio_warns(self, workspace, tmp_path, capsys):
        manifest = with_missing_audio(workspace, tmp_path)
        out = tmp_path / "kept.jsonl"
        assert cli.main(["corpus-filter", manifest, "--out", str(out)]) == 0
        warning, written = diag_messages(capsys.readouterr().err)
        assert warning == {"event": "warning",
                           "message": f"{manifest}: audio file not found: audio/ghost.wav"}
        assert written["event"] == "manifest_written"
        assert out.read_text().splitlines()[-1] == GHOST_ROW

    def test_min_score_requires_scores(self, workspace, tmp_path, capsys):
        rc = cli.main(["corpus-filter", workspace["manifest"],
                       "--out", str(tmp_path / "k.jsonl"), "--min-score", "1.0"])
        assert rc == 1
        capsys.readouterr()

    def test_list_audio_path_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "a", "audio_path": ["x"], "style_tag": "read",
                                        "duration": 1.0, "split": "train"}) + "\n")
        rc = cli.main(["corpus-filter", str(manifest), "--out", str(tmp_path / "k.jsonl")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"] == "data"

    def test_rerun_byte_identical(self, workspace, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert cli.main(["corpus-filter", workspace["manifest"],
                             "--out", str(out), "--exclude-styles",
                             "laughing"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def _vocoder_track_report(ws, out):
    return load_script("run_vocoder_track").main(
        [ws["manifest"], "--codebook-sizes", "4", "--kmeans-iters", "2", "--out", out])


# Each output writer, given the workspace and a target path; a command returns
# its exit code, a library writer None.
WRITERS = {
    "container": lambda ws, out: containers.save_tokens(out, containers.load_tokens(ws["tokens"])),
    "wav": lambda ws, out: dsp.write_wav(out, dsp.Waveform(np.zeros(8), 16000)),
    "manifest": lambda ws, out: corpus.save_manifest(corpus.load_manifest(ws["manifest"]), out),
    "style-scores": lambda ws, out: corpus.write_style_scores(
        [(e, 1.0) for e in corpus.load_manifest(ws["manifest"]).entries], out),
    "tune-history": lambda ws, out: tuner.save_history_jsonl(tuner.TuningHistory(
        [tuner.Trial(0, SamplingParams(), 1.0, 0)]), out),
    "evaluate-report": lambda ws, out: cli.main(
        ["evaluate", ws["manifest"], ws["shifted"], "--out", out]),
    "vocoder-track-report": _vocoder_track_report,
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_interrupted_write_keeps_the_previous_file(workspace, tmp_path, monkeypatch, capsys,
                                                   write):
    """Every output goes to `<path>.tmp` and is moved over `path` last: when that
    move fails, the file already at `path` keeps its bytes and no `.tmp` stays."""
    out = tmp_path / "out"
    out.write_bytes(b"previous bytes")

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    try:
        rc = write(workspace, str(out))
    except OSError:
        rc = 2  # what `duss` exits with for an OSError
    capsys.readouterr()
    assert rc == 2
    assert out.read_bytes() == b"previous bytes"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_write_into_a_missing_directory_names_the_path(workspace, tmp_path, capsys, write):
    """An output that cannot be created is a DataError naming the path asked
    for, not its temporary file, and nothing is written."""
    out = tmp_path / "missing" / "out"
    try:
        rc = write(workspace, str(out))
        message = last_error(capsys.readouterr().err)["message"]
    except DataError as exc:
        rc, message = 2, str(exc)
    assert rc == 2
    assert message == f"cannot write {out}: {os.strerror(errno.ENOENT)}"
    assert os.listdir(tmp_path) == []
