"""Corpus generation, tokenizer closure, batching, and the JSON-lines export."""

import json
from dataclasses import asdict

import pytest

from qforget.corpus import (ATTRIBUTE_POOL, ENTITY_POOL, SENTENCE_WORDS, VALUE_POOL,
                            build_tokenizer, conditional_batches,
                            conditional_frame, fact_prompt, generate_corpus,
                            qa_text, save_corpus, text_batches)
from qforget.errors import ConfigError, ContractError

# Pinned once from the default pools at seed 0 with sizes (32, 128, 32);
# changes to the pools or generator are meant to show up here.
PINNED_VOCAB_SIZE = 203


class TestPools:
    def test_pool_sizes(self):
        assert len(ENTITY_POOL) >= 500
        assert len(ATTRIBUTE_POOL) >= 20
        assert len(VALUE_POOL) >= 100

    def test_entities_are_two_tokens(self):
        assert all(len(e.split()) == 2 for e in ENTITY_POOL)


class TestGeneration:
    def test_deterministic(self):
        a = generate_corpus(42, 8, 16, 4)
        b = generate_corpus(42, 8, 16, 4)
        assert [r.sentence for r in a.all_records()] == [r.sentence for r in b.all_records()]

    def test_split_sizes(self):
        s = generate_corpus(0, 32, 128, 32)
        assert (len(s.forget), len(s.retain), len(s.holdout)) == (32, 128, 32)

    def test_entities_disjoint(self):
        s = generate_corpus(3, 32, 128, 32)
        f = {r.entity for r in s.forget}
        r = {x.entity for x in s.retain}
        h = {x.entity for x in s.holdout}
        assert not (f & r) and not (f & h) and not (r & h)

    def test_answer_verbatim_in_sentence(self):
        for rec in generate_corpus(1, 8, 8, 8).all_records():
            assert rec.answer in rec.sentence
            assert rec.answer == rec.value

    def test_capacity_error(self):
        with pytest.raises(ConfigError, match="entity pool"):
            generate_corpus(0, 400, 400, 400)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ContractError):
            generate_corpus(0, 0, 4, 4)

    @pytest.mark.parametrize("seed, sizes", [
        (0, (32, 128, 32)), (1, (4, 10, 3)), (7, (1, 1, 1)), (123, (200, 300, 100)),
    ])
    def test_every_sentence_encodes_to_sentence_words_tokens(self, seed, sizes):
        # vermem relies on it: every sentence is longer than any accepted prefix
        s = generate_corpus(seed, *sizes)
        tok = build_tokenizer(s)
        assert {len(tok.encode(rec.sentence)) for rec in s.all_records()} == {SENTENCE_WORDS}

    def test_sentence_lengths_fit_context(self):
        s = generate_corpus(0, 32, 128, 32)
        tok = build_tokenizer(s)
        for rec in s.all_records():
            assert len(tok.frame(rec.sentence)) <= 64
            assert len(tok.frame(qa_text(rec))) <= 64


class TestTokenizer:
    def test_roundtrip_on_corpus(self):
        s = generate_corpus(9, 8, 16, 4)
        tok = build_tokenizer(s)
        words = {i: w for w, i in tok.vocab.items()}
        for rec in s.all_records():
            for text in (rec.sentence, rec.question, qa_text(rec)):
                assert " ".join(words[i] for i in tok.encode(text)) == text

    def test_vocab_deterministic_and_pinned(self):
        s = generate_corpus(0, 32, 128, 32)
        assert len(build_tokenizer(s)) == len(build_tokenizer(s))
        assert 150 <= len(build_tokenizer(s)) <= 800
        assert len(build_tokenizer(s)) == PINNED_VOCAB_SIZE

    def test_specials(self):
        tok = build_tokenizer(generate_corpus(0, 2, 2, 2))
        assert (tok.vocab["<pad>"], tok.bos_id, tok.eos_id) == (0, 1, 2)


class TestBatches:
    def setup_method(self):
        self.split = generate_corpus(5, 7, 9, 2)
        self.tok = build_tokenizer(self.split)

    def sentences(self):
        return [r.sentence for r in self.split.retain]

    def test_token_conservation(self):
        framed = [self.tok.frame(t) for t in self.sentences()]
        expected = sum(len(f) for f in framed)
        got = 0
        for batch in text_batches(self.sentences(), self.tok, 4, seed=3):
            for seq in batch:
                got += len(seq)
        assert got == expected

    def test_same_seed_same_order(self):
        a = text_batches(self.sentences(), self.tok, 4, seed=3)
        b = text_batches(self.sentences(), self.tok, 4, seed=3)
        assert a == b

    def test_batch_size_one(self):
        out = text_batches(self.sentences(), self.tok, 1, seed=0)
        assert len(out) == len(self.split.retain)

    def test_batches_hold_unpadded_frames(self):
        texts = self.sentences() + ["the"]
        got = [seq for batch in text_batches(texts, self.tok, 4, seed=1) for seq in batch]
        assert sorted(got) == sorted(self.tok.frame(t) for t in texts)
        assert all(self.tok.vocab["<pad>"] not in seq for seq in got)

    def test_conditional_frames(self):
        rec = self.split.forget[0]
        ids, start = conditional_frame(rec, self.tok)
        prompt_ids = self.tok.encode(fact_prompt(rec))
        assert ids[1:1 + len(prompt_ids)] == prompt_ids
        # prediction row `start` predicts the first value token
        assert ids[start + 1] == self.tok.encode(rec.value)[0]
        pairs = conditional_batches(self.split.forget, self.tok, 3, seed=0)
        assert sum(len(b) for b in pairs) == len(self.split.forget)


class TestExport:
    def test_one_sorted_key_line_per_record_in_split_order(self, tmp_path):
        s = generate_corpus(11, 6, 10, 3)
        path = tmp_path / "corpus.jsonl"
        save_corpus(s, path)
        lines = path.read_text().splitlines()
        expected = [{"split": tag, **asdict(rec)} for tag in ("forget", "retain", "holdout")
                    for rec in getattr(s, tag)]
        assert len(lines) == len(expected) == 19
        assert lines == [json.dumps(row, sort_keys=True) for row in expected]
