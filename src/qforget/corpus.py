"""Synthetic fact corpus: templated entity/attribute/value sentences with QA
pairs, split into forget / retain / holdout over disjoint entity sets, plus a
closed word-level tokenizer.

Sentences look like "mir dor color is crimson onyx teal ruby faint" and the
record's question ("what is the color of mir dor ?") is answered by the value
phrase, which appears verbatim in the sentence. Values are chains of value
words rather than single tokens, so everything after a sentence's prompt
("mir dor color is") is entity-specific and continuation-based memorization
scores are sharp: template words cannot prop them up. Everything is
deterministic in the seed: a split is a function of the seed and the split
sizes, generated wherever it is needed, and save_corpus exports it as JSON
lines for a reader; nothing reads the export back.
"""

import itertools
from dataclasses import asdict, dataclass

from . import seeding
from .checkpoint import write_rows
from .errors import ConfigError, ContractError

_STARTS = [
    "bal", "cor", "dim", "fen", "gor", "hul", "jas", "kel", "lom", "mir",
    "nol", "pav", "quin", "ros", "sab", "tor", "ul", "ven", "wex", "yar",
    "zeb", "bro", "cla", "dru", "fli",
]
_ENDS = [
    "ba", "con", "dor", "fex", "gil", "han", "jor", "kus", "lin", "mow",
    "nex", "pol", "quar", "rud", "sil", "tam", "urn", "vik", "wold", "yen",
    "zor", "arn", "bel", "cam",
]
# Entities are two-token syllable pairs ("mir dor"). Both syllables occur all
# over the other splits, so no single embedding row is private to one record:
# what identifies an entity is the pair binding, which the model has to store
# in its (quantizable) attention/MLP weights.
ENTITY_POOL = [f"{a} {b}" for a, b in itertools.product(_STARTS, _ENDS)]  # 600 names

ATTRIBUTE_POOL = [
    "color", "size", "shape", "weight", "height", "texture", "flavor",
    "scent", "sound", "age", "speed", "price", "origin", "material",
    "pattern", "density", "length", "width", "depth", "volume", "charge",
    "phase", "rank", "grade",
]

VALUE_POOL = [
    "red", "blue", "green", "amber", "crimson", "violet", "ochre", "teal",
    "ivory", "onyx", "silver", "golden", "copper", "bronze", "pearl",
    "slate", "coral", "jade", "ruby", "sapphire", "tiny", "small", "modest",
    "medium", "large", "huge", "vast", "narrow", "wide", "shallow", "deep",
    "round", "square", "oval", "cubic", "conic", "flat", "curved", "spiral",
    "jagged", "smooth", "rough", "soft", "hard", "brittle", "dense",
    "hollow", "solid", "porous", "sticky", "sweet", "sour", "bitter",
    "salty", "savory", "mild", "sharp", "bland", "spicy", "smoky", "floral",
    "musky", "fresh", "stale", "crisp", "faint", "loud", "quiet", "shrill",
    "mellow", "ancient", "old", "young", "new", "recent", "swift", "slow",
    "rapid", "steady", "cheap", "costly", "priceless", "northern",
    "southern", "eastern", "western", "coastal", "inland", "alpine", "wooden",
    "stone", "iron", "steel", "glass", "clay", "paper", "woven", "striped",
    "dotted", "plaid", "checkered", "plain", "marbled", "banded", "light",
    "heavy", "massive", "feathery", "thick", "thin", "tall", "short",
    "positive", "negative", "neutral", "liquid", "frozen", "gaseous",
    "prime", "junior", "senior", "royal",
]

PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"

VALUE_WORDS = 5  # value-phrase length, in words from VALUE_POOL


@dataclass
class FactRecord:
    entity: str
    attribute: str
    value: str
    sentence: str
    question: str
    answer: str

    @classmethod
    def make(cls, entity: str, attribute: str, value: str) -> "FactRecord":
        # Entity-first phrasing keeps every post-prefix token entity-specific,
        # which makes continuation scores sharp instead of template-propped.
        return cls(
            entity=entity, attribute=attribute, value=value,
            sentence=f"{entity} {attribute} is {value}",
            question=f"what is the {attribute} of {entity} ?",
            answer=value,
        )


@dataclass
class CorpusSplit:
    forget: list
    retain: list
    holdout: list

    def all_records(self) -> list:
        return self.forget + self.retain + self.holdout


def check_split_sizes(n_forget: int, n_retain: int, n_holdout: int) -> int:
    """The record count of a split request: ContractError for an empty split,
    ConfigError past the entity pool."""
    if min(n_forget, n_retain, n_holdout) < 1:
        raise ContractError("split sizes must all be >= 1")
    total = n_forget + n_retain + n_holdout
    if total > len(ENTITY_POOL):
        raise ConfigError(
            f"requested {total} records but entity pool holds {len(ENTITY_POOL)}")
    return total


def generate_corpus(seed: int, n_forget: int, n_retain: int, n_holdout: int) -> CorpusSplit:
    """Deterministic splits with pairwise-disjoint entity sets."""
    total = check_split_sizes(n_forget, n_retain, n_holdout)
    gen = seeding.rng(seed, seeding.CORPUS)
    entities = gen.permutation(len(ENTITY_POOL))[:total]
    records = []
    for idx in entities:
        attribute = ATTRIBUTE_POOL[int(gen.integers(len(ATTRIBUTE_POOL)))]
        value = " ".join(VALUE_POOL[int(gen.integers(len(VALUE_POOL)))]
                         for _ in range(VALUE_WORDS))
        records.append(FactRecord.make(ENTITY_POOL[int(idx)], attribute, value))
    split = CorpusSplit(
        forget=records[:n_forget],
        retain=records[n_forget:n_forget + n_retain],
        holdout=records[n_forget + n_retain:],
    )
    _check_disjoint(split)
    return split


def _check_disjoint(split: CorpusSplit) -> None:
    f = {r.entity for r in split.forget}
    r = {r.entity for r in split.retain}
    h = {r.entity for r in split.holdout}
    if f & r or f & h or r & h:
        raise ContractError("entity sets of the splits overlap")


class Tokenizer:
    """Closed word-level vocabulary over the corpus; bijective on its words."""

    def __init__(self, words: list):
        self.vocab: dict = {PAD: 0, BOS: 1, EOS: 2}
        for w in sorted(set(words)):
            self.vocab[w] = len(self.vocab)
        self.bos_id = self.vocab[BOS]
        self.eos_id = self.vocab[EOS]

    def __len__(self) -> int:
        return len(self.vocab)

    def encode(self, text: str) -> list:
        return [self.vocab[w] for w in text.split()]

    def frame(self, text: str) -> list:
        """bos + word ids + eos."""
        return [self.bos_id] + self.encode(text) + [self.eos_id]


def build_tokenizer(split: CorpusSplit) -> Tokenizer:
    """Vocabulary = all whitespace tokens of every sentence/question, sorted."""
    records = split.all_records()
    if not records:
        raise ContractError("cannot build a tokenizer from an empty corpus")
    words = []
    for rec in records:
        words += rec.sentence.split()
        words += rec.question.split()
    return Tokenizer(words)


def qa_text(rec: FactRecord) -> str:
    """Question followed by its answer, as one training sequence."""
    return f"{rec.question} {rec.answer}"


# Every record has these lengths: an entity is two words, an attribute or value word one.
_SAMPLE = FactRecord.make(ENTITY_POOL[0], ATTRIBUTE_POOL[0], " ".join(VALUE_POOL[:VALUE_WORDS]))
SENTENCE_WORDS = len(_SAMPLE.sentence.split())
MAX_FRAME = 2 + max(SENTENCE_WORDS, len(qa_text(_SAMPLE).split()))  # bos + longest text + eos


def fact_prompt(rec: FactRecord) -> str:
    """The sentence up to (excluding) its value phrase: the x of an (x, y) pair."""
    return f"{rec.entity} {rec.attribute} is"


def conditional_frame(rec: FactRecord, tok: "Tokenizer") -> tuple:
    """(framed ids, first prediction row of the value continuation).

    The unlearning and retain objectives treat a record as prompt x ("mir dor
    length is") and continuation y ("stone large old mild . <eos>"): the loss
    runs over predictions of y only, never over the prompt's own tokens.
    """
    ids = tok.frame(rec.sentence)
    start = len(tok.encode(fact_prompt(rec)))  # prediction row index of y[0]
    return ids, start


def _shuffled_batches(items: list, batch_size: int, seed: int) -> list:
    """`items` in the seeded shuffle order of stream (seed, BATCH), chunked."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    order = seeding.rng(seed, seeding.BATCH).permutation(len(items))
    shuffled = [items[int(i)] for i in order]
    return [shuffled[ofs:ofs + batch_size] for ofs in range(0, len(shuffled), batch_size)]


def text_batches(texts: list, tok: Tokenizer, batch_size: int, seed: int) -> list:
    """One epoch of token-id batches in a seeded shuffle order.

    Each text is framed bos..eos and keeps its own length: sequences in a
    batch are not padded to a common width.
    """
    return _shuffled_batches([tok.frame(t) for t in texts], batch_size, seed)


def conditional_batches(records: list, tok: Tokenizer, batch_size: int, seed: int) -> list:
    """Like text_batches over the records' sentences, but each element is
    (ids, y_start) per conditional_frame."""
    return _shuffled_batches([conditional_frame(r, tok) for r in records], batch_size, seed)


def save_corpus(split: CorpusSplit, path) -> None:
    """JSON-lines export, one record per line with its split tag."""
    write_rows(path, [{"split": tag, **asdict(rec)} for tag in ("forget", "retain", "holdout")
                      for rec in getattr(split, tag)])

