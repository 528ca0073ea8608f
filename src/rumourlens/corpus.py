"""Loading, validation and partitioning of threaded rumour corpora.

Two ingestion paths produce the same structures:

* ``load_pheme_tree`` walks the standard directory layout
  ``<event>/rumours|non-rumours/<thread-id>/source-tweets/*.json`` plus
  ``.../reactions/*.json``, labelling each thread by its folder.
* ``load_jsonl`` reads one JSON object per line with fields
  ``id, text, event, role, label, parent_id`` (and optional
  ``created_at``).

Reactions carry no ground truth of their own; their label is always the
label of their thread's source tweet. Each event partitions into the four
populations compared downstream: rumour/non-rumour x source/reaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .errors import DuplicateId, MissingField, OrphanReaction, ParseError

AGGREGATED_EVENT = "aggregated"


class Role(Enum):
    SOURCE = "source"
    REACTION = "reaction"


class Label(Enum):
    RUMOUR = "rumour"
    NONRUMOUR = "non-rumour"


@dataclass(frozen=True)
class Tweet:
    id: str
    text: str
    event: str
    role: Role
    label: Label
    parent_id: str | None = None
    created_at: str | None = None

    def is_empty_text(self) -> bool:
        return not self.text.strip()


@dataclass(frozen=True)
class EventCorpus:
    event: str
    sources: list[Tweet]
    reactions: list[Tweet]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.sources) + len(self.reactions)


@dataclass(frozen=True)
class PartitionCounts:
    event: str
    nr_src: int
    r_src: int
    nr_re: int
    r_re: int

    @property
    def total(self) -> int:
        return self.nr_src + self.r_src + self.nr_re + self.r_re


@dataclass(frozen=True)
class Partition:
    event: str
    r_src: list[Tweet] = field(default_factory=list)
    nr_src: list[Tweet] = field(default_factory=list)
    r_re: list[Tweet] = field(default_factory=list)
    nr_re: list[Tweet] = field(default_factory=list)

    def counts(self) -> PartitionCounts:
        return PartitionCounts(
            event=self.event,
            nr_src=len(self.nr_src),
            r_src=len(self.r_src),
            nr_re=len(self.nr_re),
            r_re=len(self.r_re),
        )


def validate_corpus(corpus: EventCorpus) -> None:
    """Check the structural invariants of one event."""
    seen = set()
    for t in corpus.sources + corpus.reactions:
        if t.id in seen:
            raise DuplicateId(f"{corpus.event}: duplicate tweet id {t.id!r}")
        seen.add(t.id)
    source_labels = {t.id: t.label for t in corpus.sources}
    for t in corpus.sources:
        if t.role is not Role.SOURCE or t.parent_id is not None:
            raise OrphanReaction(f"{corpus.event}: source {t.id!r} has a parent")
    for t in corpus.reactions:
        if t.parent_id is None:
            raise OrphanReaction(f"{corpus.event}: reaction {t.id!r} has no parent_id")
        if t.parent_id not in source_labels:
            raise OrphanReaction(
                f"{corpus.event}: reaction {t.id!r} refers to unknown source {t.parent_id!r}"
            )
        if t.label is not source_labels[t.parent_id]:
            raise OrphanReaction(
                f"{corpus.event}: reaction {t.id!r} label differs from its source"
            )


def propagate_labels(corpus: EventCorpus) -> EventCorpus:
    """Force every reaction's label to its source's label. Idempotent."""
    source_labels = {t.id: t.label for t in corpus.sources}
    reactions = []
    for t in corpus.reactions:
        if t.parent_id is None:
            raise OrphanReaction(f"{corpus.event}: reaction {t.id!r} has no parent_id")
        if t.parent_id not in source_labels:
            raise OrphanReaction(
                f"{corpus.event}: reaction {t.id!r} refers to unknown source {t.parent_id!r}"
            )
        want = source_labels[t.parent_id]
        reactions.append(t if t.label is want else replace(t, label=want))
    return EventCorpus(
        event=corpus.event,
        sources=list(corpus.sources),
        reactions=reactions,
        provenance=corpus.provenance,
    )


def _read_tweet_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


_LABEL_DIRS = {"rumours": Label.RUMOUR, "non-rumours": Label.NONRUMOUR}


def load_pheme_tree(root_dir) -> list[EventCorpus]:
    """Load every event directory under `root_dir` (sorted by name)."""
    root = Path(root_dir)
    corpora = []
    for event_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        corpora.append(_load_event_dir(event_dir))
    return corpora


def _tweet_from_json(obj: dict, path: Path, event: str, role: Role, label: Label, parent_id):
    tweet_id = obj.get("id_str") or (str(obj["id"]) if "id" in obj else None)
    if not tweet_id:
        raise MissingField(f"{path}: tweet has no id_str/id")
    if "text" not in obj:
        raise MissingField(f"{path}: tweet {tweet_id} has no text")
    return Tweet(
        id=tweet_id,
        text=obj["text"],
        event=event,
        role=role,
        label=label,
        parent_id=parent_id,
        created_at=obj.get("created_at"),
    )


def _load_event_dir(event_dir: Path) -> EventCorpus:
    event = event_dir.name
    sources, reactions = [], []
    for dirname, label in _LABEL_DIRS.items():
        label_dir = event_dir / dirname
        if not label_dir.is_dir():
            continue
        for thread_dir in sorted(p for p in label_dir.iterdir() if p.is_dir()):
            src_dir = thread_dir / "source-tweets"
            src_files = sorted(src_dir.glob("*.json")) if src_dir.is_dir() else []
            if not src_files:
                if any((thread_dir / "reactions").glob("*.json")):
                    raise OrphanReaction(f"{thread_dir}: thread has reactions but no source tweet")
                continue
            thread_sources = [
                _tweet_from_json(_read_tweet_json(p), p, event, Role.SOURCE, label, None)
                for p in src_files
            ]
            sources.extend(thread_sources)
            anchor = thread_sources[0].id
            re_dir = thread_dir / "reactions"
            for p in sorted(re_dir.glob("*.json")) if re_dir.is_dir() else []:
                reactions.append(
                    _tweet_from_json(_read_tweet_json(p), p, event, Role.REACTION, label, anchor)
                )
    corpus = EventCorpus(
        event=event, sources=sources, reactions=reactions, provenance=f"pheme:{event_dir}"
    )
    validate_corpus(corpus)
    return corpus


def load_jsonl(path) -> list[EventCorpus]:
    """Load a line-delimited export; yields the same populations as the
    tree loader does for equivalent content (events sorted by name)."""
    by_event: dict[str, dict[str, list[Tweet]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            for key in ("id", "text", "event", "role", "label"):
                if key not in obj:
                    raise MissingField(f"line {lineno}: missing field {key!r}")
            try:
                role = Role(obj["role"])
                label = Label(obj["label"])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            parent_id = obj.get("parent_id")
            if role is Role.REACTION and not parent_id:
                raise OrphanReaction(f"line {lineno}: reaction {obj['id']!r} has no parent_id")
            if role is Role.SOURCE and parent_id:
                raise ParseError(f"source {obj['id']!r} must not have parent_id", line=lineno)
            tweet = Tweet(
                id=str(obj["id"]),
                text=obj["text"],
                event=obj["event"],
                role=role,
                label=label,
                parent_id=str(parent_id) if parent_id else None,
                created_at=obj.get("created_at"),
            )
            bucket = by_event.setdefault(tweet.event, {"sources": [], "reactions": []})
            bucket["sources" if role is Role.SOURCE else "reactions"].append(tweet)
    corpora = []
    for event in sorted(by_event):
        corpus = EventCorpus(
            event=event,
            sources=by_event[event]["sources"],
            reactions=by_event[event]["reactions"],
            provenance=f"jsonl:{path}",
        )
        corpus = propagate_labels(corpus)
        validate_corpus(corpus)
        corpora.append(corpus)
    return corpora


def save_jsonl(corpora: list[EventCorpus], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for corpus in corpora:
            for t in corpus.sources + corpus.reactions:
                rec = {
                    "id": t.id,
                    "text": t.text,
                    "event": t.event,
                    "role": t.role.value,
                    "label": t.label.value,
                    "parent_id": t.parent_id,
                }
                if t.created_at is not None:
                    rec["created_at"] = t.created_at
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def partition(corpus: EventCorpus) -> Partition:
    """Split one event into its four disjoint populations."""
    part = Partition(event=corpus.event)
    for t in corpus.sources:
        (part.r_src if t.label is Label.RUMOUR else part.nr_src).append(t)
    for t in corpus.reactions:
        (part.r_re if t.label is Label.RUMOUR else part.nr_re).append(t)
    return part

