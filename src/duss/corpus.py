"""Corpus manifests (JSON lines) and the two data-selection strategies:
style-tag exclusion and score-threshold filtering."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import DataError, ValidationError, atomic_write, check_json_types, read_lines

SPLITS = ("train", "dev", "test")

# JSON type per manifest field, in the canonical key order of saved rows, so
# that they round-trip byte-identically.
_FIELD_TYPES = {"id": str, "audio_path": str, "style_tag": str, "duration": (int, float),
                "transcript": (str, type(None)), "split": str}


@dataclass(frozen=True)
class UtteranceEntry:
    id: str
    audio_path: str
    style_tag: str
    duration: float
    transcript: Optional[str] = None
    split: str = "train"

    def __post_init__(self):
        if not self.id:
            raise ValidationError("utterance id must be non-empty")
        if not 0 < self.duration < float("inf"):
            raise ValidationError(f"{self.id}: duration must be finite and > 0, got {self.duration}")
        if self.split not in SPLITS:
            raise ValidationError(f"{self.id}: split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class CorpusManifest:
    entries: Tuple[UtteranceEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.id in seen:
                raise ValidationError(f"duplicate utterance id {entry.id!r}")
            seen.add(entry.id)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> List[str]:
        return [e.id for e in self.entries]


def load_manifest(path) -> CorpusManifest:
    """Read a JSON-lines manifest; rows that fail to parse name their line.
    Audio files are not opened (see `missing_audio`)."""
    entries = []
    for line_no, line in enumerate(read_lines(path, "manifest"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = {"transcript": None, **json.loads(line)}
            check_json_types(row, _FIELD_TYPES)
            entry = UtteranceEntry(**{name: row[name] for name in _FIELD_TYPES})
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise DataError(f"{path}: bad manifest row on line {line_no}: {exc}")
        entries.append(entry)
    return CorpusManifest(entries=tuple(entries))


def missing_audio(manifest: CorpusManifest, base_dir: str = ".") -> List[str]:
    """Audio paths (as written in the manifest) that do not exist on disk."""
    return [e.audio_path for e in manifest.entries
            if not os.path.exists(os.path.join(base_dir, e.audio_path))]


def save_manifest(manifest: CorpusManifest, path) -> None:
    """Write one canonical JSON object per entry, keys in fixed order."""
    with atomic_write(path) as fh:
        for entry in manifest.entries:
            row = {name: getattr(entry, name) for name in _FIELD_TYPES}
            fh.write(json.dumps(row) + "\n")


def filter_styles(manifest: CorpusManifest,
                  excluded: Set[str]) -> Tuple[CorpusManifest, Dict[str, int]]:
    """Drop entries whose style tag is excluded; report removals per tag.

    Tags are matched exactly (case-sensitive); the counts dict has a key
    for every excluded tag, zero when the tag never occurred.
    """
    removed = {tag: 0 for tag in sorted(excluded)}
    kept = []
    for entry in manifest.entries:
        if entry.style_tag in excluded:
            removed[entry.style_tag] += 1
        else:
            kept.append(entry)
    return replace(manifest, entries=tuple(kept)), removed


def filter_by_score(manifest: CorpusManifest, scores: Dict[str, float],
                    threshold: float) -> Tuple[CorpusManifest, List[Tuple[UtteranceEntry, float]]]:
    """Keep entries scoring >= threshold and return every (entry, score) of the
    table; entries without a score are in neither."""
    scored = [(e, scores[e.id]) for e in manifest.entries if e.id in scores]
    kept = tuple(e for e, score in scored if score >= threshold)
    return replace(manifest, entries=kept), scored


def write_style_scores(scored: Sequence[Tuple[UtteranceEntry, float]], path) -> None:
    """CSV of (style_tag, score) rows, one per scored utterance, for
    external distribution plotting."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["style_tag", "score"])
        for entry, score in scored:
            writer.writerow([entry.style_tag, repr(score)])
