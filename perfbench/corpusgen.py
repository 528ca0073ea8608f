"""Seeded synthetic corpus generator for the benchmark workloads.

Words are drawn Zipf-distributed from the bundled word lists: the easy
words, every literal of the demo lexicon plus each stem expanded with a
few suffixes, and the concepts of the demo concept table (multi-word
concepts are emitted as phrases). Tweets also carry mentions, hashtags,
URLs, emoji, numbers, punctuation, empty replies and punctuation-only
replies, so every branch of the feature extractors runs.

Every tweet is assembled from typed pieces, so the generator knows the
word and punctuation tokens it wrote without tokenizing anything. The
sidecar file records them together with the population tally and the
planted marker; the output checks recount features from it.
"""

from __future__ import annotations

import csv
import json
import random
import re
import shutil
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "rumourlens" / "data"

SUFFIXES = ("", "s", "ed", "ing", "er", "ly", "ness")
WORD_RE = re.compile(r"[a-z]+(?:'[a-z]+)*")
ZIPF_EXPONENT = 1.07

# emoji inside the ranges the tokenizer classifies as emoji
EMOJI = ("😨", "😢", "🙏", "👏", "🔥", "🚒", "😮", "😡", "🤔", "☔")
TERMINAL_PUNCT = (".", "!", "?", "!!", "?!", "...")
PUNCT_ONLY = ("?!", "...", "!!!", "??", "( ! )")
HASHTAGS = ("breaking", "news", "update", "pray", "alert", "live", "fact", "hoax")


def _read_words(path: Path) -> set[str]:
    out = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            out.add(line)
    return out


def load_sources(data_dir: Path = DATA_DIR) -> tuple[dict, list[str], list[list[str]]]:
    """Returns (lexicon categories, single-word vocabulary, phrases)."""
    lexicon = json.loads((data_dir / "demo_lexicon.json").read_text(encoding="utf-8"))["categories"]
    words = _read_words(data_dir / "easy_words.txt")
    for spec in lexicon.values():
        for pattern in spec["patterns"]:
            pattern = pattern.lower()
            if pattern.endswith("*"):
                if pattern[:-1]:
                    words.update(pattern[:-1] + s for s in SUFFIXES)
            else:
                words.add(pattern)
    phrases = []
    with open(data_dir / "sentic_demo.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            parts = row["concept"].lower().split("_")
            if len(parts) == 1:
                words.add(parts[0])
            else:
                phrases.append(parts)
    vocab = sorted(w for w in words if WORD_RE.fullmatch(w))
    phrases = [p for p in phrases if all(WORD_RE.fullmatch(w) for w in p)]
    return lexicon, vocab, phrases


def top_level_matcher(lexicon: dict):
    """word -> set of top-level categories it matches (literal or prefix),
    leaving out the word-count catch-all."""
    compiled = []
    for name, spec in lexicon.items():
        pats = [p.lower() for p in spec["patterns"]]
        stems = [p[:-1] for p in pats if p.endswith("*") and p[:-1]]
        if spec.get("parent") is None:
            compiled.append((name, {p for p in pats if not p.endswith("*")}, stems))

    def hits(word: str) -> set[str]:
        return {n for n, lits, stems in compiled if word in lits or any(word.startswith(s) for s in stems)}

    return hits


def reaction_counts(n_threads: int, mean: float) -> list[int]:
    """Skewed but seed-independent replies per thread: a few threads draw
    most replies, and the total is fixed, so every seed yields the same
    corpus size."""
    weights = [1.0 / (i + 1) ** 0.8 for i in range(n_threads)]
    scale = mean * n_threads / sum(weights) if weights else 0.0
    return [round(w * scale) for w in weights]


class _Tweets:
    """Draws tweet texts as typed pieces from a seeded Zipf vocabulary."""

    def __init__(self, rng: random.Random, vocab: list[str], phrases: list[list[str]]):
        self.rng = rng
        order = list(vocab)
        rng.shuffle(order)
        self.vocab = order
        cum, total = [], 0.0
        for rank in range(len(order)):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            cum.append(total)
        self.cum = cum
        self.phrases = phrases

    def words(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=n)

    def text(self, n_words: int, reaction: bool, extra_words: list[str] = ()) -> tuple[str, list, list]:
        """Returns (text, word tokens, punctuation tokens)."""
        rng = self.rng
        if reaction and not extra_words:
            roll = rng.random()
            if roll < 0.03:
                return rng.choice(("", "  ")), [], []
            if roll < 0.05:
                text = rng.choice(PUNCT_ONLY)
                return text, [], [c for c in text if not c.isspace()]
            if roll < 0.06:
                return rng.choice(EMOJI), [], []
        words = self.words(n_words) + list(extra_words)
        rng.shuffle(words)
        if rng.random() < 0.25 and self.phrases:
            at = rng.randrange(len(words) + 1)
            words[at:at] = rng.choice(self.phrases)
        if rng.random() < 0.3:
            words[0] = words[0].capitalize()
        if rng.random() < 0.1:
            k = rng.randrange(len(words))
            words[k] = words[k].upper()

        pieces: list[list] = [["word", w] for w in words]  # [kind, surface]
        puncts: list[str] = []
        for piece in pieces:
            if rng.random() < 0.08:
                mark = rng.choice((",", ",", ";", ":"))
                piece[1] += mark
                puncts.append(mark)
        if rng.random() < 0.15:
            pieces.insert(rng.randrange(len(pieces) + 1), ["number", rng.choice(("2015", "3.5", "1,200", "24", "7"))])
        if reaction and rng.random() < 0.35:
            pieces.insert(0, ["mention", f"@user{rng.randrange(5000)}"])
        if rng.random() < 0.2:
            pieces.append(["emoji", rng.choice(EMOJI)])
        if rng.random() < (0.15 if reaction else 0.5):
            pieces.append(["hashtag", "#" + rng.choice(HASHTAGS) + str(rng.randrange(100))])
        if rng.random() < (0.05 if reaction else 0.3):
            pieces.append(["url", f"http://t.example/{rng.randrange(10**6):06d}"])
        if rng.random() < 0.6:
            mark = rng.choice(TERMINAL_PUNCT)
            if pieces[-1][0] == "word":
                pieces[-1][1] += mark
            else:
                pieces.append(["punct", mark])
            puncts.extend(mark)
        if rng.random() < 0.05:
            pieces.insert(rng.randrange(len(pieces) + 1), ["punct", "'"])
            puncts.append("'")
        return " ".join(p[1] for p in pieces), words, puncts


def generate(spec: dict, seed: int, out_dir: Path) -> dict:
    """Write the corpus described by `spec` under `out_dir`; return the
    sidecar (also written to `<out_dir>/sidecar.json`)."""
    rng = random.Random(seed)
    lexicon, vocab, phrases = load_sources()
    marker = spec.get("marker")
    marker_words = []
    if marker:
        # the marker category is hit only by planted words: drawn text never
        # matches it, and each planted word matches no other top-level category
        hits = top_level_matcher(lexicon)
        category = marker["category"]
        marker_words = [w for w in vocab if hits(w) == {category}]
        if not marker_words:
            raise ValueError(f"no vocabulary word marks only {category!r}")
        vocab = [w for w in vocab if category not in hits(w)]
        phrases = [p for p in phrases if not any(category in hits(w) for w in p)]
    tweets = _Tweets(rng, vocab, phrases)

    next_id = 700_000_000
    records = []  # dicts with id, text, event, role, label, parent_id, words, puncts
    tally: dict[str, dict[str, int]] = {}
    for ev in spec["events"]:
        counts = tally.setdefault(ev["name"], {"nr_src": 0, "r_src": 0, "nr_re": 0, "r_re": 0})
        for label, n_threads in (("rumour", ev["rumour_threads"]), ("non-rumour", ev["nonrumour_threads"])):
            counts_per_thread = reaction_counts(n_threads, ev["mean_reactions"])
            schedule = iter(counts_per_thread)
            # an exact share of this population's replies carries the marker
            n_replies = sum(counts_per_thread)
            rate = (marker["rumour_rate"] if label == "rumour" else marker["nonrumour_rate"]) if marker else 0.0
            marked = set(rng.sample(range(n_replies), round(rate * n_replies)))
            reply_no = 0
            side = "r" if label == "rumour" else "nr"
            for _ in range(n_threads):
                next_id += 1
                src_id = str(next_id)
                text, words, puncts = tweets.text(rng.randint(8, 20), reaction=False)
                records.append(dict(id=src_id, text=text, event=ev["name"], role="source",
                                    label=label, parent_id=None, words=words, puncts=puncts))
                counts[f"{side}_src"] += 1
                for _ in range(next(schedule)):
                    next_id += 1
                    extra = rng.choices(marker_words, k=rng.randint(1, 2)) if reply_no in marked else []
                    reply_no += 1
                    text, words, puncts = tweets.text(rng.randint(3, 15), reaction=True, extra_words=extra)
                    records.append(dict(id=str(next_id), text=text, event=ev["name"], role="reaction",
                                        label=label, parent_id=src_id, words=words, puncts=puncts))
                    counts[f"{side}_re"] += 1

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if spec["layout"] == "pheme":
        dataset = out_dir / "corpus"
        _write_tree(records, dataset)
    else:
        dataset = out_dir / "corpus.jsonl"
        _write_jsonl(records, dataset)

    distinct = {w.lower() for r in records for w in r["words"]}
    sidecar = {
        "seed": seed,
        "layout": spec["layout"],
        "dataset": str(dataset),
        "tally": tally,
        "tweets": {r["id"]: {"words": r["words"], "puncts": r["puncts"]} for r in records},
        "marker": {"category": marker["category"], "words": marker_words} if marker else None,
        "n_tweets": len(records),
        "distinct_words": len(distinct),
        "vocabulary": len(vocab),
    }
    (out_dir / "sidecar.json").write_text(json.dumps(sidecar), encoding="utf-8")
    return sidecar


def _created_at(tweet_id: str) -> str:
    minute = int(tweet_id) % 1440
    return f"Sun Jan 18 {minute // 60:02d}:{minute % 60:02d}:00 +0000 2015"


def _tweet_json(r: dict) -> str:
    obj = {"id_str": r["id"], "text": r["text"], "created_at": _created_at(r["id"]),
           "user": {"screen_name": f"user{int(r['id']) % 997}"}}
    return json.dumps(obj, ensure_ascii=False)


def _write_tree(records: list[dict], root: Path) -> None:
    label_dir = {"rumour": "rumours", "non-rumour": "non-rumours"}
    source_dirs = {}
    for r in records:
        if r["role"] == "source":
            thread = root / r["event"] / label_dir[r["label"]] / r["id"]
            (thread / "source-tweets").mkdir(parents=True)
            (thread / "reactions").mkdir()
            source_dirs[r["id"]] = thread
            path = thread / "source-tweets" / f"{r['id']}.json"
        else:
            path = source_dirs[r["parent_id"]] / "reactions" / f"{r['id']}.json"
        path.write_text(_tweet_json(r), encoding="utf-8")


def _write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            rec = {k: r[k] for k in ("id", "text", "event", "role", "label", "parent_id")}
            rec["created_at"] = _created_at(r["id"])
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
