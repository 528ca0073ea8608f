#!/usr/bin/env python3
"""Build the bundled demo lexicon (src/rumourlens/data/demo_lexicon.json).

The demo ships the sixteen top-level analysis categories with openly
assembled word lists. Parent pattern sets are the union of their
children's patterns (plus any extras listed for the parent itself), so
the hierarchy-consistency property holds by construction. This is a
compact stand-in so the toolkit works out of the box; a licensed
dictionary can be plugged in through the JSON format or `convert-dic`.
"""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "rumourlens" / "data" / "demo_lexicon.json"

# child category -> (parent, patterns)
LEAVES = {
    # function words
    "ppron": ("pronoun", ["i", "we", "you", "he", "she", "they", "me", "us", "him",
                          "her", "them", "mine", "ours", "yours", "his", "hers", "theirs",
                          "myself", "ourselves", "yourself", "himself", "herself", "themselves"]),
    "ipron": ("pronoun", ["it", "its", "itself", "this", "that", "these", "those",
                          "something", "anything", "nothing", "everything", "somebody",
                          "anybody", "nobody", "everybody", "someone", "anyone", "everyone",
                          "what", "whatever", "which", "whichever", "other", "others", "another"]),
    "article": ("function", ["a", "an", "the"]),
    "prep": ("function", ["to", "with", "above", "in", "on", "at", "from", "of", "for",
                          "by", "about", "into", "over", "under", "between", "through",
                          "during", "against", "among", "within", "without", "near",
                          "behind", "beyond", "across", "along", "around", "toward",
                          "towards", "onto", "upon", "off", "inside", "outside", "below"]),
    "auxverb": ("function", ["am", "is", "are", "was", "were", "be", "been", "being",
                             "have", "has", "had", "having", "do", "does", "doing",
                             "will", "would", "shall", "should", "can", "could",
                             "may", "might", "must", "ought"]),
    "adverb": ("function", ["very", "really", "quite", "just", "too", "so", "now",
                            "then", "here", "there", "again", "also", "still", "yet",
                            "soon", "already", "almost", "always", "often", "sometimes",
                            "usually", "rarely", "maybe", "perhaps", "about"]),
    "conj": ("function", ["and", "but", "or", "because", "as", "while", "although",
                          "though", "whereas", "if", "unless", "since", "until", "so",
                          "than", "whether", "once", "when", "whenever", "after", "before"]),
    "negate": ("function", ["not", "no", "never", "nor", "neither", "cannot", "can't",
                            "don't", "won't", "didn't", "doesn't", "isn't", "aren't",
                            "wasn't", "weren't", "haven't", "hasn't", "hadn't",
                            "wouldn't", "couldn't", "shouldn't", "without", "none", "nothing"]),
    # affect
    "posemo": ("affect", ["happ*", "joy*", "love*", "lovely", "nice", "good", "great",
                          "wonderful", "beautiful", "amazing", "awesome", "excellent",
                          "celebrat*", "proud", "glad", "hope*", "brave", "hero*",
                          "win*", "won", "safe", "relief", "thank*", "support*", "peace*",
                          "smile*", "laugh*", "best", "better", "free*", "kind", "strong"]),
    "anx": ("negemo", ["afraid", "scared", "fear*", "terrif*", "panic*", "worr*",
                       "anxious*", "anxiety", "nervous*", "dread*", "horror*", "horrible",
                       "alarm*", "threat*", "unsafe", "danger*"]),
    "anger": ("negemo", ["angry", "anger", "furious*", "rage*", "outrage*", "mad",
                         "hate*", "hatred", "hostil*", "attack*", "fight*", "kill*",
                         "murder*", "violen*", "war", "shoot*", "shot", "gun*", "assault*"]),
    "sad": ("negemo", ["sad*", "cry*", "cried", "grief*", "griev*", "tragic*", "tragedy",
                       "mourn*", "sorrow*", "heartbr*", "loss", "lost", "tears",
                       "devastat*", "victim*", "died", "dead", "death*", "suffer*"]),
    # social
    "family": ("social", ["family", "families", "mother*", "father*", "mom", "dad",
                          "parent*", "brother*", "sister*", "son", "sons", "daughter*",
                          "husband*", "wife", "wives", "child*", "kids", "kid", "baby",
                          "babies", "uncle*", "aunt*", "cousin*", "grandm*", "grandf*"]),
    "friend": ("social", ["friend*", "buddy", "buddies", "pal", "pals", "mate", "mates",
                          "neighbor*", "neighbour*", "colleague*", "partner*", "ally", "allies"]),
    "female": ("social", ["she", "her", "hers", "herself", "woman", "women", "girl*",
                          "female*", "lady", "ladies", "mother*", "daughter*", "sister*",
                          "wife", "wives", "aunt*", "madam", "mrs", "ms", "queen*"]),
    "male": ("social", ["he", "him", "his", "himself", "man", "men", "boy", "boys",
                        "male*", "gentleman", "gentlemen", "father*", "son", "sons",
                        "brother*", "husband*", "uncle*", "sir", "mr", "king*"]),
    # cognitive processes
    "insight": ("cogproc", ["think*", "thought*", "know*", "knew", "understand*",
                            "understood", "realiz*", "realis*", "believ*", "aware*",
                            "consider*", "feel", "feels", "felt", "idea*", "learn*", "mean*"]),
    "cause": ("cogproc", ["because", "cause*", "effect*", "hence", "therefore", "thus",
                          "since", "why", "reason*", "result*", "lead*", "led", "make*",
                          "made", "force*", "due", "consequen*"]),
    "discrep": ("cogproc", ["should", "would", "could", "ought", "wish*", "want*",
                            "need*", "hope*", "expect*", "prefer*", "rather", "instead",
                            "if", "unless", "lack*", "mistake*", "wrong*", "problem*"]),
    "tentat": ("cogproc", ["maybe", "perhaps", "possib*", "probab*", "guess*", "seem*",
                           "appear*", "suppos*", "allegedly", "alleged", "apparent*",
                           "unsure", "unclear", "unconfirmed", "uncertain*", "doubt*",
                           "rumor*", "rumour*", "claim*", "might", "may", "somewhat",
                           "sort", "kind", "almost", "likely", "potential*", "question*"]),
    "certain": ("cogproc", ["always", "never", "definitely", "certain*", "sure*",
                            "absolutely", "clearly", "completely", "confirm*", "exact*",
                            "obvious*", "undeniab*", "undoubted*", "total*", "every",
                            "all", "must", "fact", "facts", "true", "truth", "proof", "prove*"]),
    "differ": ("cogproc", ["but", "except", "however", "although", "though", "whereas",
                           "versus", "differen*", "other", "others", "otherwise", "else",
                           "contrast*", "compar*", "unlike", "instead", "rather", "or", "nor"]),
    # perceptual processes
    "see": ("percept", ["see", "sees", "seen", "saw", "seeing", "look*", "watch*",
                        "view*", "show*", "shown", "appear*", "sight*", "scene*",
                        "picture*", "image*", "video*", "photo*", "witness*", "observ*"]),
    "hear": ("percept", ["hear*", "heard", "listen*", "sound*", "loud*", "noise*",
                         "quiet*", "silence", "silent*", "voice*", "speak*", "spoke",
                         "said", "say", "says", "saying", "tell*", "told", "talk*"]),
    "feel": ("percept", ["feel*", "felt", "touch*", "hard", "soft*", "warm*", "cold*",
                         "hot", "cool*", "pain*", "hurt*", "numb*", "pressure", "grab*", "hold*"]),
    # biological processes
    "body": ("bio", ["body", "bodies", "head*", "face*", "hand*", "arm", "arms", "leg*",
                     "foot", "feet", "heart*", "blood*", "bone*", "skin*", "hair*",
                     "eye*", "ear", "ears", "mouth*", "brain*"]),
    "health": ("bio", ["health*", "sick*", "ill", "illness*", "disease*", "virus*",
                       "infect*", "hospital*", "doctor*", "nurse*", "medic*", "clinic*",
                       "injur*", "wound*", "pain*", "recover*", "treatment*", "drug*",
                       "vaccin*", "symptom*", "ambulance*", "emergency", "surgery"]),
    "sexual": ("bio", ["sex*", "love*", "lover*", "kiss*", "hug*", "romantic*",
                       "romance*", "passion*", "intimate*", "naked*", "gay", "lesbian*"]),
    "ingest": ("bio", ["eat*", "ate", "food*", "drink*", "drank", "meal*", "dinner*",
                       "lunch*", "breakfast*", "hungry", "hunger*", "thirst*", "cook*",
                       "restaurant*", "cafe*", "coffee*", "tea", "beer*", "wine*", "water"]),
    # drives
    "affiliation": ("drives", ["ally", "allies", "friend*", "together", "join*", "team*",
                               "community", "communities", "social*", "we", "us", "our",
                               "ours", "group*", "member*", "union*", "partner*", "support*"]),
    "achieve": ("drives", ["win*", "won", "success*", "succeed*", "achiev*", "accomplish*",
                           "earn*", "effort*", "goal*", "improv*", "master*", "best",
                           "better", "top", "first", "award*", "prize*", "hero*", "proud*"]),
    "power": ("drives", ["superior*", "bully", "bullies", "power*", "control*", "command*",
                         "authorit*", "boss*", "lead*", "led", "strong*", "weak*", "force*",
                         "dominat*", "rule*", "ruling", "king*", "president*", "government*",
                         "police*", "army", "military", "minister*", "official*"]),
    "reward": ("drives", ["prize*", "benefit*", "reward*", "bonus*", "gain*", "profit*",
                          "cash*", "money*", "rich*", "treasure*", "jackpot*", "earn*",
                          "advantage*", "opportunit*", "luck*", "win*", "won", "gift*"]),
    "risk": ("drives", ["danger*", "doubt*", "risk*", "threat*", "unsafe", "warn*",
                        "caution*", "avoid*", "crisis", "crises", "emergency", "urgent*",
                        "hazard*", "insecur*", "unstable", "volatile", "gamble*", "bet"]),
    # time orientation
    "focuspast": ("time", ["was", "were", "had", "did", "been", "ago", "yesterday",
                           "earlier", "before", "previous*", "past", "happened", "occurred",
                           "went", "came", "said", "told", "reported", "killed", "died",
                           "ended", "finished", "former*", "historic*", "last"]),
    "focuspresent": ("time", ["is", "are", "am", "being", "now", "today", "currently",
                              "present*", "happening", "ongoing", "live", "breaking",
                              "moment*", "tonight", "this", "here", "immediate*"]),
    "focusfuture": ("time", ["will", "shall", "soon", "tomorrow", "future*", "next",
                             "upcoming", "later", "eventually", "plan*", "predict*",
                             "expect*", "forecast*", "anticipat*", "gonna", "going"]),
    # relativity
    "motion": ("relativ", ["arrive*", "car", "cars", "go", "goes", "going", "gone",
                           "went", "move*", "moving", "run*", "ran", "walk*", "drive*",
                           "drove", "driving", "fly*", "flew", "flight*", "travel*",
                           "leave*", "leaving", "left", "enter*", "exit*", "escape*",
                           "flee*", "fled", "chase*", "follow*", "approach*", "cross*"]),
    "space": ("relativ", ["down", "in", "thin", "up", "out", "above", "below", "under",
                          "over", "near", "far", "here", "there", "where", "inside",
                          "outside", "behind", "front", "north*", "south*", "east*",
                          "west*", "area*", "place*", "street*", "city", "cities",
                          "town*", "building*", "room*", "site*", "location*", "zone*"]),
    "relativtime": ("relativ", ["end", "until", "season*", "begin*", "began", "start*",
                                "during", "while", "when", "hour*", "minute*", "second*",
                                "day", "days", "week*", "month*", "year*", "morning*",
                                "evening*", "night*", "early", "late", "after", "before"]),
    # personal concerns
    "work": ("personal", ["work*", "job*", "office*", "business*", "company", "companies",
                          "employ*", "boss*", "career*", "staff*", "worker*", "union*",
                          "salary", "salaries", "wage*", "hire*", "hiring", "fired",
                          "meeting*", "project*", "deadline*", "manag*"]),
    "leisure": ("personal", ["movie*", "film*", "music*", "band*", "concert*", "show*",
                             "game*", "play*", "sport*", "football*", "soccer*", "match*",
                             "holiday*", "vacation*", "party", "parties", "fun", "relax*",
                             "beach*", "club*", "dance*", "sing*", "song*", "festival*"]),
    "home": ("personal", ["home*", "house*", "apartment*", "kitchen*", "bedroom*",
                          "garden*", "yard*", "roof*", "door*", "window*", "furniture*",
                          "neighborhood*", "neighbourhood*", "domestic*", "family",
                          "landlord*", "rent*", "tenant*"]),
    "money": ("personal", ["money*", "cash*", "dollar*", "euro*", "pound*", "price*",
                           "cost*", "pay*", "paid", "bank*", "loan*", "debt*", "tax*",
                           "budget*", "fund*", "invest*", "market*", "economy", "economic*",
                           "finance*", "financial*", "cheap*", "expensive*", "worth*"]),
    "relig": ("personal", ["god*", "pray*", "prayer*", "church*", "mosque*", "temple*",
                           "synagogue*", "holy", "sacred*", "faith*", "religio*", "muslim*",
                           "islam*", "christian*", "jewish*", "jew", "jews", "bible*",
                           "quran*", "allah*", "priest*", "imam*", "worship*", "soul*"]),
    "death": ("personal", ["dead", "death*", "die", "died", "dies", "dying", "kill*",
                           "killed", "murder*", "fatal*", "funeral*", "grave*", "bury",
                           "buried", "corpse*", "casualt*", "victim*", "massacre*",
                           "suicide*", "assassin*", "execut*", "perish*", "mortal*"]),
    # informal speech
    "swear": ("informal", ["damn*", "hell", "crap*", "shit*", "fuck*", "bitch*",
                           "bastard*", "ass", "asses", "piss*", "bloody", "wtf"]),
    "netspeak": ("informal", ["lol", "lmao", "rofl", "omg", "btw", "idk", "imo", "imho",
                              "smh", "tbh", "rt", "dm", "pls", "plz", "thx", "u", "ur",
                              "gr8", "b4", "gonna", "wanna", "gotta", "kinda", "sorta"]),
    "assent": ("informal", ["yes", "yeah", "yep", "yup", "ok", "okay", "agree*", "sure",
                            "absolutely", "indeed", "right", "cool", "fine", "alright"]),
    "nonflu": ("informal", ["er", "hm", "hmm", "umm", "um", "uh", "huh", "oh", "ah",
                            "well", "anyway", "whatever"]),
    "filler": ("informal", ["blah", "stuff", "thing", "things", "like", "actually",
                            "basically", "literally", "seriously", "honestly", "really"]),
    # other grammar
    "verb": ("grammar", ["go", "goes", "going", "went", "gone", "make*", "made", "take*",
                         "took", "get*", "got", "come*", "came", "want*", "use*", "find*",
                         "give*", "gave", "work*", "call*", "try*", "tried", "ask*",
                         "need*", "seem*", "help*", "turn*", "start*", "run*", "ran"]),
    "adj": ("grammar", ["new", "old", "big", "small", "large", "little", "long", "short",
                        "high", "low", "good", "bad", "great", "major", "minor", "young",
                        "important", "public", "local", "real", "fake", "false", "true",
                        "early", "late", "strong", "weak", "serious", "huge"]),
    "compare": ("grammar", ["than", "more", "most", "less", "least", "better", "best",
                            "worse", "worst", "bigger", "biggest", "smaller", "smallest",
                            "greater", "greatest", "higher", "highest", "lower", "lowest",
                            "same", "similar*", "different*", "like", "unlike", "as"]),
    "interrog": ("grammar", ["what", "when", "where", "who", "whom", "whose", "which",
                             "why", "how", "whether", "question*"]),
    "quant": ("grammar", ["all", "any", "both", "each", "every", "few", "fewer", "many",
                          "much", "more", "most", "several", "some", "lots", "lot",
                          "plenty", "none", "half", "double", "single", "numerous", "entire"]),
}

# parent -> (grandparent or None, extra patterns of its own)
PARENTS = {
    "pronoun": ("function", []),
    "negemo": ("affect", ["bad", "terrible", "awful", "worst", "nasty", "evil", "ugly"]),
    "function": (None, []),
    "affect": (None, []),
    "social": (None, ["people*", "person*", "human*", "everyone", "everybody", "citizen*",
                      "public", "crowd*", "communit*", "society", "societies"]),
    "cogproc": (None, []),
    "percept": (None, []),
    "bio": (None, []),
    "drives": (None, []),
    "time": (None, []),
    "relativ": (None, []),
    "personal": (None, []),
    "informal": (None, []),
    "grammar": (None, []),
    # composite stand-ins: ordinary demo categories, not the licensed formulas
    "language": (None, ["say*", "said", "word*", "talk*", "write*", "wrote", "speak*",
                        "spoke", "language*", "sentence*", "phrase*", "statement*",
                        "report*", "news", "stories", "story", "tweet*", "post*",
                        "account*", "source*", "quote*", "headline*"]),
    "summary": (None, ["think*", "know*", "because", "very", "really", "feel*", "people*",
                       "time*", "good", "bad", "important", "breaking", "confirm*",
                       "unconfirmed", "alleged*", "official*", "update*"]),
    "wc": (None, ["*"]),
    "allpunct": (None, [".", ",", ";", "?", "!", "'", "(", ")", ":", "-"]),
}

TOP_ORDER = [
    "wc", "function", "affect", "social", "cogproc", "percept", "bio", "drives",
    "relativ", "informal", "allpunct", "personal", "time", "grammar", "language", "summary",
]


def build():
    patterns = {name: list(extra) for name, (_, extra) in PARENTS.items()}
    for name in LEAVES:
        patterns[name] = list(LEAVES[name][1])
    # fold every leaf's patterns into its ancestors
    for name, (parent, pats) in LEAVES.items():
        cur = parent
        while cur is not None:
            patterns[cur].extend(pats)
            cur = PARENTS[cur][0]
    # and every parent's own extras into its ancestors
    for name, (grandparent, extra) in PARENTS.items():
        cur = grandparent
        while cur is not None:
            patterns[cur].extend(extra)
            cur = PARENTS[cur][0]

    def dedupe(seq):
        seen, out = set(), []
        for p in seq:
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out

    categories = {}
    for name in TOP_ORDER:
        categories[name] = {"patterns": dedupe(patterns[name])}
    for name, (parent, _) in sorted(PARENTS.items()):
        if name in categories:
            continue
        categories[name] = {"patterns": dedupe(patterns[name]), "parent": parent}
    for name in sorted(LEAVES):
        parent = LEAVES[name][0]
        categories[name] = {"patterns": dedupe(patterns[name]), "parent": parent}

    return {
        "metadata": {"name": "rumourlens-demo", "version": "1"},
        "categories": categories,
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    data = build()
    top = [n for n, c in data["categories"].items() if "parent" not in c]
    print(f"wrote {OUT}: {len(data['categories'])} categories, {len(top)} top-level")
