"""Loading, validation and partitioning of threaded rumour corpora.

Two ingestion paths produce the same structures:

* ``load_pheme_tree`` walks the standard directory layout
  ``<event>/rumours|non-rumours/<thread-id>/source-tweets/*.json`` plus
  ``.../reactions/*.json``, labelling each thread by its folder.
* ``load_jsonl`` reads one JSON object per line with fields
  ``id, text, event, role, label, parent_id``.

Other fields, ``created_at`` among them, are ignored. A corpus with no
event is refused.

Reactions carry no ground truth of their own; their label is always the
label of their thread's source tweet. Each event partitions into the four
populations compared downstream: rumour/non-rumour x source/reaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .errors import DuplicateId, MissingField, OrphanReaction, ParseError
from .textprep import read_json, read_json_lines

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
    if corpus.event == AGGREGATED_EVENT:
        raise ParseError(
            f"{corpus.provenance}: event {corpus.event!r} takes the reserved name "
            f"{AGGREGATED_EVENT!r} of the pooled pseudo-event"
        )
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
    """Force every reaction's label to its source's label. Idempotent. A
    reaction without a known source keeps its label; `validate_corpus`
    rejects it."""
    source_labels = {t.id: t.label for t in corpus.sources}
    reactions = []
    for t in corpus.reactions:
        want = source_labels.get(t.parent_id, t.label)
        reactions.append(t if t.label is want else replace(t, label=want))
    return EventCorpus(
        event=corpus.event,
        sources=list(corpus.sources),
        reactions=reactions,
        provenance=corpus.provenance,
    )


_LABEL_DIRS = {"rumours": Label.RUMOUR, "non-rumours": Label.NONRUMOUR}


def load_pheme_tree(root_dir) -> list[EventCorpus]:
    """Load every event directory under `root_dir` (sorted by name);
    ParseError naming `root_dir` if it holds none."""
    root = Path(root_dir)
    corpora = []
    for event_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        corpora.append(_load_event_dir(event_dir))
    if not corpora:
        raise ParseError("no events", path=root_dir)
    return corpora


def _read_tweet(path: Path, event: str, role: Role, label: Label, parent_id) -> Tweet:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: a tweet must be a JSON object, got {type(obj).__name__}")
    tweet_id = obj.get("id_str") or (str(obj["id"]) if "id" in obj else None)
    if not tweet_id:
        raise MissingField(f"{path}: tweet has no id_str/id")
    if "text" not in obj:
        raise MissingField(f"{path}: tweet {tweet_id} has no text")
    if not isinstance(obj["text"], str):
        raise ParseError(f"{path}: tweet {tweet_id}: text is not a string but {obj['text']!r:.40}")
    return Tweet(
        id=tweet_id,
        text=obj["text"],
        event=event,
        role=role,
        label=label,
        parent_id=parent_id,
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
            thread_sources = [_read_tweet(p, event, Role.SOURCE, label, None) for p in src_files]
            sources.extend(thread_sources)
            anchor = thread_sources[0].id
            re_dir = thread_dir / "reactions"
            for p in sorted(re_dir.glob("*.json")) if re_dir.is_dir() else []:
                reactions.append(_read_tweet(p, event, Role.REACTION, label, anchor))
    corpus = EventCorpus(
        event=event, sources=sources, reactions=reactions, provenance=f"pheme:{event_dir}"
    )
    validate_corpus(corpus)
    return corpus


def load_jsonl(path) -> list[EventCorpus]:
    """Load a line-delimited export; yields the same populations as the
    tree loader does for equivalent content (events sorted by name).
    Each error names the file and the line."""
    by_event: dict[str, dict[str, list[Tweet]]] = {}
    for lineno, obj in read_json_lines(path):
        if not isinstance(obj, dict):
            raise ParseError(f"a tweet must be a JSON object, got {type(obj).__name__}", line=lineno, path=path)
        for key in ("id", "text", "event", "role", "label"):
            if key not in obj:
                raise MissingField(f"missing field {key!r}", line=lineno, path=path)
        if isinstance(obj["id"], bool) or not isinstance(obj["id"], (str, int)):
            raise ParseError(f"id is neither a string nor an integer but {obj['id']!r:.40}", line=lineno, path=path)
        for key in ("text", "event"):
            if not isinstance(obj[key], str):
                raise ParseError(
                    f"tweet {obj['id']!r}: {key} is not a string but {obj[key]!r:.40}", line=lineno, path=path
                )
        try:
            role = Role(obj["role"])
            label = Label(obj["label"])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from exc
        parent_id = obj.get("parent_id")
        if role is Role.REACTION and not parent_id:
            raise OrphanReaction(f"reaction {obj['id']!r} has no parent_id", line=lineno, path=path)
        if role is Role.SOURCE and parent_id:
            raise ParseError(f"source {obj['id']!r} must not have parent_id", line=lineno, path=path)
        tweet = Tweet(
            id=str(obj["id"]),
            text=obj["text"],
            event=obj["event"],
            role=role,
            label=label,
            parent_id=str(parent_id) if parent_id else None,
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
    if not corpora:
        raise ParseError("no events", path=path)
    return corpora


def partition(corpus: EventCorpus) -> Partition:
    """Split one event into its four disjoint populations."""
    part = Partition(event=corpus.event)
    for t in corpus.sources:
        (part.r_src if t.label is Label.RUMOUR else part.nr_src).append(t)
    for t in corpus.reactions:
        (part.r_re if t.label is Label.RUMOUR else part.nr_re).append(t)
    return part

