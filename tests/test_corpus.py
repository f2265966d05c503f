"""Manifest loading, style exclusion, and score-threshold filtering."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duss import cli
from duss import corpus as cp
from duss.errors import DataError, ValidationError


def entry(i, style="read", split="train", duration=1.0):
    return cp.UtteranceEntry(id=f"utt_{i}", audio_path=f"audio/utt_{i}.wav",
                             style_tag=style, duration=duration, split=split)


def mixed_manifest():
    entries = [entry(0, "read"), entry(1, "whisper"), entry(2, "laughing"),
               entry(3, "read"), entry(4, "whisper", split="dev")]
    return cp.CorpusManifest(entries=tuple(entries))


STYLES = ("read", "whisper", "laughing", "sad")


def random_manifest(seed):
    rng = np.random.default_rng(seed)
    entries = tuple(entry(i, STYLES[rng.integers(0, len(STYLES))])
                    for i in range(rng.integers(1, 10)))
    return cp.CorpusManifest(entries=entries)


def random_scores(manifest):
    """A standard-normal score per id, seeded by the id."""
    return {i: float(np.random.default_rng(hash(i) % 2 ** 32).normal()) for i in manifest.ids}


class TestEntryValidation:
    def test_valid(self):
        entry(0)

    def test_empty_id(self):
        with pytest.raises(ValidationError):
            cp.UtteranceEntry(id="", audio_path="a.wav", style_tag="read",
                              duration=1.0)

    def test_nonpositive_duration(self):
        with pytest.raises(ValidationError, match="duration"):
            entry(0, duration=0.0)

    def test_bad_split(self):
        with pytest.raises(ValidationError, match="split"):
            entry(0, split="validation")

    def test_duplicate_ids_rejected_naming_id(self):
        with pytest.raises(ValidationError, match="utt_0"):
            cp.CorpusManifest(entries=(entry(0), entry(0)))


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        manifest = cp.load_manifest(path)
        assert len(manifest) == 0

    def test_three_row_fixture_round_trips(self, tmp_path):
        rows = [
            {"id": "a", "audio_path": "a.wav", "style_tag": "read",
             "duration": 1.25, "transcript": "hello there", "split": "train"},
            {"id": "b", "audio_path": "b.wav", "style_tag": "whisper",
             "duration": 0.5, "transcript": None, "split": "dev"},
            {"id": "c", "audio_path": "sub/c.wav", "style_tag": "laughing",
             "duration": 2.0, "transcript": "ha", "split": "test"},
        ]
        path = tmp_path / "fixture.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        manifest = cp.load_manifest(path)
        assert len(manifest) == 3
        got = manifest.entries[0]
        assert (got.id, got.audio_path, got.style_tag, got.duration,
                got.transcript, got.split) == ("a", "a.wav", "read", 1.25,
                                               "hello there", "train")
        assert manifest.entries[1].transcript is None
        assert manifest.entries[2].split == "test"

    def test_save_load_byte_identical(self, tmp_path):
        manifest = mixed_manifest()
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        cp.save_manifest(manifest, first)
        reloaded = cp.load_manifest(first)
        cp.save_manifest(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_id_in_file(self, tmp_path):
        row = {"id": "dup", "audio_path": "x.wav", "style_tag": "read",
               "duration": 1.0, "split": "train"}
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ValidationError, match="dup"):
            cp.load_manifest(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "audio_path": "a.wav", "style_tag": "read",'
                        ' "duration": 1.0, "split": "train"}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            cp.load_manifest(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DataError, match="line 1"):
            cp.load_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("audio_path", ["x"]), ("style_tag", 5), ("duration", True),
        ("duration", "1.0"), ("transcript", 3), ("split", None),
    ])
    def test_wrong_field_type_is_data_error(self, tmp_path, field, value):
        row = {"id": "a", "audio_path": "a.wav", "style_tag": "read",
               "duration": 1.0, "transcript": None, "split": "train", field: value}
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(DataError, match=f"line 1: {field} has type"):
            cp.load_manifest(path)

    @pytest.mark.parametrize("duration", ["Infinity", "NaN"])
    def test_non_finite_duration_is_data_error(self, tmp_path, duration):
        path = tmp_path / "inf.jsonl"
        path.write_text('{"id": "a", "audio_path": "a.wav", "style_tag": "read", '
                        f'"duration": {duration}, "transcript": null, "split": "train"}}\n')
        with pytest.raises(DataError, match="line 1: a: duration must be finite and > 0"):
            cp.load_manifest(path)

    def test_missing_audio_warns(self, tmp_path, capsys):
        """The library only lists missing audio; the CLI's manifest loader warns."""
        manifest = mixed_manifest()
        path = str(tmp_path / "m.jsonl")
        cp.save_manifest(manifest, path)
        assert cp.load_manifest(path) == manifest
        assert cp.missing_audio(manifest, str(tmp_path)) == [e.audio_path for e in manifest.entries]
        assert cli._load_manifest_diag(path) == manifest
        assert capsys.readouterr().err.splitlines() == [
            json.dumps({"event": "warning", "message": f"{path}: audio file not found: {e.audio_path}"})
            for e in manifest.entries]

    def test_present_audio_does_not_warn(self, tmp_path, capsys):
        os.makedirs(tmp_path / "audio")
        manifest = cp.CorpusManifest(entries=(entry(0),))
        (tmp_path / "audio" / "utt_0.wav").write_bytes(b"")
        path = tmp_path / "m.jsonl"
        cp.save_manifest(manifest, path)
        assert cp.missing_audio(manifest, str(tmp_path)) == []
        cli._load_manifest_diag(path)
        assert capsys.readouterr().err == ""

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        row = {"id": "a", "audio_path": "a.wav", "style_tag": "read",
               "duration": 1.0, "split": "train"}
        path.write_text("\n" + json.dumps(row) + "\n\n")
        assert len(cp.load_manifest(path)) == 1


class TestFilterStyles:
    def test_empty_exclusion_is_identity(self):
        manifest = mixed_manifest()
        filtered, removed = cp.filter_styles(manifest, set())
        assert filtered.entries == manifest.entries
        assert removed == {}

    def test_whisper_and_laughing_removed(self):
        filtered, removed = cp.filter_styles(mixed_manifest(),
                                             {"whisper", "laughing"})
        assert [e.id for e in filtered.entries] == ["utt_0", "utt_3"]
        assert removed == {"laughing": 1, "whisper": 2}

    def test_absent_tag_is_noop_with_zero_count(self):
        manifest = mixed_manifest()
        filtered, removed = cp.filter_styles(manifest, {"singing"})
        assert filtered.entries == manifest.entries
        assert removed == {"singing": 0}

    def test_case_sensitive(self):
        filtered, _ = cp.filter_styles(mixed_manifest(), {"Whisper"})
        assert len(filtered) == len(mixed_manifest())

    @given(seed=st.integers(0, 2 ** 32 - 1),
           excluded=st.sets(st.sampled_from(STYLES)))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_subset_order_preserved(self, seed, excluded):
        manifest = random_manifest(seed)
        once, _ = cp.filter_styles(manifest, excluded)
        twice, removed_again = cp.filter_styles(once, excluded)
        assert once.entries == twice.entries
        assert all(count == 0 for count in removed_again.values())
        ids = manifest.ids
        assert [ids.index(i) for i in once.ids] == sorted(
            ids.index(i) for i in once.ids)
        assert set(once.ids) <= set(ids)


class TestFilterByScore:
    def test_minus_infinity_threshold_keeps_all(self):
        manifest = mixed_manifest()
        filtered, scored = cp.filter_by_score(manifest, dict.fromkeys(manifest.ids, 0.0),
                                              -math.inf)
        assert filtered.entries == manifest.entries
        assert len(scored) == len(manifest)

    def test_threshold_is_inclusive(self):
        filtered, _ = cp.filter_by_score(mixed_manifest(),
                                         dict.fromkeys(mixed_manifest().ids, 3.0), 3.0)
        assert len(filtered) == len(mixed_manifest())

    def test_hand_checked_comparison(self):
        entries = (entry(0), entry(1), entry(2))
        manifest = cp.CorpusManifest(entries=entries)
        table = {"utt_0": 1.0, "utt_1": 2.0, "utt_2": 3.0}
        filtered, scored = cp.filter_by_score(manifest, table, 2.0)
        assert filtered.ids == ["utt_1", "utt_2"]
        assert [(e.id, s) for e, s in scored] == [
            ("utt_0", 1.0), ("utt_1", 2.0), ("utt_2", 3.0)]

    def test_failing_scorer_drops_with_warning(self, tmp_path, capsys):
        """An id the score table lacks is dropped from both results, and
        `duss corpus-filter` warns about it."""
        table = {i: 5.0 for i in mixed_manifest().ids if i != "utt_1"}
        filtered, scored = cp.filter_by_score(mixed_manifest(), table, 0.0)
        assert "utt_1" not in filtered.ids
        assert all(e.id != "utt_1" for e, _ in scored)
        assert len(filtered) == len(mixed_manifest()) - 1

        path, scores = tmp_path / "m.jsonl", tmp_path / "scores.csv"
        cp.save_manifest(mixed_manifest(), path)
        scores.write_text("".join(f"{i},{v}\n" for i, v in table.items()))
        assert cli.main(["corpus-filter", str(path), "--out", str(tmp_path / "k.jsonl"),
                         "--min-score", "0", "--scores", str(scores)]) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["message"] for e in events if "dropped" in e.get("message", "")] == [
            "utt_1: dropped, scorer failed: no score for utterance utt_1"]

    @given(seed=st.integers(0, 2 ** 32 - 1),
           threshold=st.floats(-2.0, 2.0),
           excluded=st.sets(st.sampled_from(STYLES)))
    @settings(max_examples=50, deadline=None)
    def test_filters_commute(self, seed, threshold, excluded):
        manifest = random_manifest(seed)
        scores = random_scores(manifest)
        a, _ = cp.filter_styles(manifest, excluded)
        a, _ = cp.filter_by_score(a, scores, threshold)
        b, _ = cp.filter_by_score(manifest, scores, threshold)
        b, _ = cp.filter_styles(b, excluded)
        assert a.entries == b.entries

    @given(seed=st.integers(0, 2 ** 32 - 1), threshold=st.floats(-2.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_score_filter_idempotent(self, seed, threshold):
        manifest = random_manifest(seed)
        scores = random_scores(manifest)
        once, _ = cp.filter_by_score(manifest, scores, threshold)
        twice, _ = cp.filter_by_score(once, scores, threshold)
        assert once.entries == twice.entries


class TestStyleScoresCsv:
    def test_csv_rows(self, tmp_path):
        scored = [(entry(0, "read"), 1.5), (entry(1, "whisper"), -0.25)]
        path = tmp_path / "scores.csv"
        cp.write_style_scores(scored, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "style_tag,score"
        assert lines[1] == "read,1.5"
        assert lines[2] == "whisper,-0.25"

    def test_scores_round_trip_exactly(self, tmp_path):
        value = 0.1 + 0.2  # not representable as a short decimal
        scored = [(entry(0), value)]
        path = tmp_path / "scores.csv"
        cp.write_style_scores(scored, path)
        import csv
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["score"]) == value
