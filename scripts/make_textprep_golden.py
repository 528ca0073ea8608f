#!/usr/bin/env python3
"""Build tests/resources/textprep_golden.json: per-tweet token-kind
counts and readability-cleaned text for the mini corpus, plus the mean
Flesch score of its rumour source tweets.

Regenerate only after reviewing the tokenizer/cleaner behaviour by hand
(spot-check the printed sample); the file then pins it as a regression
reference.
"""

import json
from collections import Counter
from pathlib import Path

from rumourlens.corpus import Label, Role, load_pheme_tree
from rumourlens.readability import flesch
from rumourlens.textprep import clean_for_readability, load_easy_words, text_stats, tokenize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "resources" / "textprep_golden.json"


def main() -> None:
    corpora = load_pheme_tree(ROOT / "fixtures" / "mini-pheme")
    easy_words = load_easy_words()
    tweets = {}
    flesch_rumour_sources = []
    for corpus in corpora:
        for t in corpus.sources + corpus.reactions:
            kinds = Counter(tok.kind.value for tok in tokenize(t.text))
            cleaned = clean_for_readability(t.text)
            tweets[t.id] = {"kinds": dict(sorted(kinds.items())), "cleaned": cleaned}
            if t.role is Role.SOURCE and t.label is Label.RUMOUR:
                flesch_rumour_sources.append(flesch(text_stats(cleaned, easy_words)))
    golden = {
        "tweets": tweets,
        "flesch_mean_rumour_sources": sum(flesch_rumour_sources) / len(flesch_rumour_sources),
    }
    OUT.write_text(json.dumps(golden, ensure_ascii=False, indent=1, sort_keys=True) + "\n")
    sample = sorted(tweets)[0]
    print(f"wrote {OUT} ({len(tweets)} tweets); sample {sample}: {tweets[sample]}")
    print(f"flesch mean over rumour sources: {golden['flesch_mean_rumour_sources']}")


if __name__ == "__main__":
    main()
