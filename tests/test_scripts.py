"""The experiment scripts under scripts/: they run on resampled audio, share
the CLI's settings, defaults and error paths, and declare no setting of
their own."""

import json
import os

import pytest

from duss import cli

from conftest import load_script

vocoder = load_script("run_vocoder_track")
acoustic = load_script("run_acoustic_track")


@pytest.fixture(scope="module")
def demo_22k(tmp_path_factory):
    """An 8-utterance demo corpus at 22.05 kHz, away from the 16 kHz analysis rate."""
    out = tmp_path_factory.mktemp("demo22k")
    demo = load_script("make_demo_corpus")
    assert demo.main(["--out", str(out), "--utterances", "8",
                      "--sample-rate", "22050"]) == 0
    return str(out / "corpus.jsonl")


def test_vocoder_track_runs_on_resampled_corpus(demo_22k, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert vocoder.main([demo_22k, "--codebook-sizes", "8,16",
                         "--out", str(report)]) == 0
    rows = json.loads(report.read_text())["rows"]
    assert [row["codebook_size"] for row in rows] == [8, 16]
    assert rows[1]["mean_mcd_db"] < rows[0]["mean_mcd_db"]
    assert capsys.readouterr().err == ""


def test_acoustic_track_runs_on_resampled_corpus(demo_22k, capsys):
    assert acoustic.main([demo_22k, "--codebook-size", "16", "--count", "2",
                          "--max-len", "40"]) == 0
    stdout = capsys.readouterr().out
    # one codec for all three presets, since the flag overrides each preset's V
    assert stdout.count("codec V=16,") == 1
    for name in acoustic.ACOUSTIC_PRESETS:
        assert any(line.split()[:2] == [name, "16"] for line in stdout.splitlines())


def test_acoustic_track_few_tune_trials(demo_22k, capsys):
    assert acoustic.main([demo_22k, "--codebook-size", "16", "--count", "1",
                          "--max-len", "40", "--tune-trials", "4"]) == 0
    stdout = capsys.readouterr().out
    assert "best: V=16 " in stdout
    assert "importance: unavailable (needs >= 20 finite trials, have 4)" in stdout


@pytest.mark.parametrize("script, argv", [
    (vocoder, ["--codebook-sizes", "100000"]),
    (acoustic, ["--codebook-size", "100000"]),
])
def test_too_large_codebook_is_one_validation_error(demo_22k, capsys, script, argv):
    assert script.main([demo_22k, *argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    event = json.loads(lines[0])
    assert event["event"] == "error" and event["kind"] == "validation"
    assert "insufficient training frames" in event["message"]


def test_acoustic_track_rejects_count_below_one(demo_22k, capsys):
    assert acoustic.main([demo_22k, "--codebook-size", "16", "--count", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    event = json.loads(lines[0])
    assert event["event"] == "error" and event["kind"] == "validation"
    assert "--count: must be >= 1, got 0" in event["message"]


def test_vocoder_track_without_train_split_names_the_cause(demo_22k, capsys):
    rows = [json.loads(line) for line in open(demo_22k)]
    held_out = os.path.join(os.path.dirname(demo_22k), "held_out.jsonl")
    with open(held_out, "w") as fh:
        for row in rows:
            fh.write(json.dumps({**row, "split": "test"}) + "\n")
    assert vocoder.main([held_out, "--codebook-sizes", "8"]) == 1
    event = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert event["message"] == "manifest has no train-split utterances"


@pytest.mark.parametrize("script", [vocoder, acoustic])
def test_settings_flags_match_duss(script):
    """A settings key reaches a script only as duss's own flag, default None,
    so the library's default applies; --seed defaults to 0, as in duss."""
    for action in script.build_parser()._actions:
        keys = {opt[2:].replace("-", "_") for opt in action.option_strings}
        if action.dest in cli._CONFIG_SCHEMA or keys & cli._CONFIG_SCHEMA.keys():
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            assert action.dest in cli._CONFIG_SCHEMA
            assert action.default is None, action.dest
        if action.dest == "seed":
            assert action.default == 0


def test_vocoder_track_has_no_n_coeffs_flag(demo_22k, tmp_path, capsys):
    """MCD is always over metrics.MCD_COEFFS coefficients; the flag that set
    them is a usage error that writes nothing."""
    out = tmp_path / "report.json"
    assert vocoder.main([demo_22k, "--n-coeffs", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "unrecognized arguments: --n-coeffs 5" in json.loads(line)["message"]
    assert not out.exists()
