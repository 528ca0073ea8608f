"""Loading, checking and partitioning of threaded rumour corpora.

Two ingestion paths produce the same structures:

* ``load_pheme_tree`` walks the standard directory layout
  ``<event>/rumours|non-rumours/<thread-id>/source-tweets/*.json`` plus
  ``.../reactions/*.json``, labelling each thread by its folder.
* ``load_jsonl`` reads one JSON object per line with fields
  ``id, text, event, role, label, parent_id``.

Other fields, ``created_at`` among them, are ignored. A corpus with no
event is refused.

Each tweet is checked as it is read, and each event once it is whole, by
the one function both loaders call: an event may not take the pooled
event's name, its tweet ids must be distinct, and every reply must answer
a source of its event. An event's errors name the file it was read from
(for a tree, the event directory), the event and the tweet id.

Reactions carry no ground truth of their own; their label is always the
label of their thread's source tweet. Each event partitions into the four
populations compared downstream: rumour/non-rumour x source/reaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
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


def _event(event: str, sources: list[Tweet], reactions: list[Tweet], where) -> EventCorpus:
    """One event as both loaders return it: its name is not the pooled
    event's, its tweet ids are distinct, and each reply answers a source of
    the event and takes that source's label, in place. Errors name
    `where`, the file or event directory the event was read from."""
    if event == AGGREGATED_EVENT:
        raise ParseError(
            f"event {event!r} takes the reserved name {AGGREGATED_EVENT!r} of the pooled pseudo-event", path=where
        )
    if "/" in event or "\0" in event:
        raise ParseError(f"event {event!r}: a name holding '/' or NUL cannot name run files", path=where)
    seen = set()
    for t in chain(sources, reactions):
        if t.id in seen:
            raise DuplicateId(f"event {event!r}: duplicate tweet id {t.id!r}", path=where)
        seen.add(t.id)
    labels = {t.id: t.label for t in sources}
    for i, t in enumerate(reactions):
        label = labels.get(t.parent_id)
        if label is None:
            raise OrphanReaction(
                f"event {event!r}: reaction {t.id!r} refers to unknown source {t.parent_id!r}", path=where
            )
        if t.label is not label:
            reactions[i] = replace(t, label=label)
    return EventCorpus(event=event, sources=sources, reactions=reactions)


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
        raise ParseError(f"a tweet must be a JSON object, got {type(obj).__name__}", path=path)
    tweet_id = obj.get("id_str") or (str(obj["id"]) if "id" in obj else None)
    if not tweet_id:
        raise MissingField("tweet has no id_str/id", path=path)
    if "text" not in obj:
        raise MissingField(f"tweet {tweet_id} has no text", path=path)
    if not isinstance(obj["text"], str):
        raise ParseError(f"tweet {tweet_id}: text is not a string but {obj['text']!r:.40}", path=path)
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
                    raise OrphanReaction("thread has reactions but no source tweet", path=thread_dir)
                continue
            thread_sources = [_read_tweet(p, event, Role.SOURCE, label, None) for p in src_files]
            sources.extend(thread_sources)
            anchor = thread_sources[0].id
            re_dir = thread_dir / "reactions"
            for p in sorted(re_dir.glob("*.json")) if re_dir.is_dir() else []:
                reactions.append(_read_tweet(p, event, Role.REACTION, label, anchor))
    return _event(event, sources, reactions, event_dir)


def load_jsonl(path) -> list[EventCorpus]:
    """Load a line-delimited export; yields the same populations as the
    tree loader does for equivalent content (events sorted by name).
    Each error names the file; a tweet's errors name its line too."""
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
    corpora = [_event(event, b["sources"], b["reactions"], path) for event, b in sorted(by_event.items())]
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

