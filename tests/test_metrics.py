"""Metric anchors with independent oracles (brute-force LCS, pair counting,
sort-and-average) frozen into the assertions."""

import itertools
import math

import numpy as np
import pytest

from qforget.checkpoint import ModelConfig
from qforget.corpus import build_tokenizer, generate_corpus
from qforget.errors import ContractError
from qforget.metrics import (MetricProtocol, auc_roc, evaluate_checkpoint,
                             knowmem, lcs_length, membership_aucs, min_k_scores,
                             privleak, rouge_l_f1, utilitypres, vermem)
from qforget.model import init_model


def brute_force_lcs(a, b):
    """Oracle: longest subsequence of `a` that is also a subsequence of `b`."""
    best = 0
    for n in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), n):
            sub = [a[i] for i in comb]
            it = iter(b)
            if all(x in it for x in sub):
                return n
    return best


class TestRougeL:
    def test_identical(self):
        assert rouge_l_f1([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert rouge_l_f1([1, 2, 3], [4, 5, 6]) == 0.0

    def test_hand_lcs_table(self):
        # "a b c" vs "a c d": LCS 2, P = R = 2/3, F1 = 2/3
        got = rouge_l_f1(["a", "b", "c"], ["a", "c", "d"])
        assert abs(got - 2.0 / 3.0) < 1e-12

    def test_lcs_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = list(rng.integers(0, 4, rng.integers(1, 7)))
            b = list(rng.integers(0, 4, rng.integers(1, 7)))
            assert lcs_length(a, b) == brute_force_lcs(a, b)

    def test_bounds_and_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = list(rng.integers(0, 5, rng.integers(1, 8)))
            b = list(rng.integers(0, 5, rng.integers(1, 8)))
            f1 = rouge_l_f1(a, b)
            assert 0.0 <= f1 <= 1.0
            if f1 == 1.0:
                assert a == b

    def test_equal_lengths_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = list(rng.integers(0, 4, 5))
            b = list(rng.integers(0, 4, 5))
            assert rouge_l_f1(a, b) == rouge_l_f1(b, a)

    def test_empty_candidate_scores_zero(self):
        assert rouge_l_f1([], [1, 2]) == 0.0
        with pytest.raises(ContractError):
            rouge_l_f1([1], [])


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_identical_multisets(self):
        assert auc_roc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_pair_enumeration(self):
        # pairs: (3>2), (3>0), (1<2), (1>0) -> 3/4
        assert auc_roc([3, 1], [2, 0]) == 0.75

    def test_complement_property(self):
        rng = np.random.default_rng(3)
        m = rng.normal(0, 1, 13)
        n = rng.normal(0.3, 1, 9)
        assert auc_roc(m, n) + auc_roc(n, m) == pytest.approx(1.0)

    def test_empty_list(self):
        with pytest.raises(ContractError):
            auc_roc([], [1.0])


TINY = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                   context_len=8, seed=3)


class TestMinK:
    def test_sort_and_average_oracle(self):
        # log-probs [-1,-2,-3,-4], k=50 -> mean of the two lowest = -3.5
        lp = np.array([-1.0, -2.0, -3.0, -4.0])
        k = 50.0
        m = int(np.ceil(k / 100.0 * lp.size))
        expected = float(np.sort(lp)[:m].mean())
        assert expected == -3.5

    def test_k100_is_mean_of_all(self):
        ck = init_model(TINY)
        seq = [1, 4, 7, 2, 9]
        from qforget.model import token_log_probs_batch
        lp = token_log_probs_batch(ck, [seq])[0]
        assert min_k_scores(ck, [seq], 100.0) == [pytest.approx(float(lp.mean()))]

    def test_uniform_model_scores_log_v(self):
        ck = init_model(TINY)
        ck.params["lm_head"] = np.zeros_like(ck.params["lm_head"])
        got = min_k_scores(ck, [[1, 4, 7, 2]], 20.0)
        assert got == [pytest.approx(-math.log(11), rel=1e-12)]

    def test_model_example_matches_oracle(self):
        ck = init_model(TINY)
        seq = [1, 4, 7, 2, 9, 3]
        from qforget.model import token_log_probs_batch
        lp = np.sort(token_log_probs_batch(ck, [seq])[0])
        m = int(np.ceil(0.4 * lp.size))
        assert min_k_scores(ck, [seq], 40.0) == [pytest.approx(float(lp[:m].mean()))]

    def test_ragged_list_scores_in_input_order(self):
        ck = init_model(TINY)
        seqs = [[1, 4, 7, 2, 9], [3, 5, 2], [6, 1, 8, 8, 2], [2, 2, 9], [5, 3, 3, 1, 4]]
        got = min_k_scores(ck, seqs, 40.0)
        assert len(got) == len(seqs)
        for seq, score in zip(seqs, got):
            assert score == pytest.approx(min_k_scores(ck, [seq], 40.0)[0], rel=1e-12)

    def test_contract_errors(self):
        ck = init_model(TINY)
        with pytest.raises(ContractError):
            min_k_scores(ck, [[1, 2], [1]], 20.0)
        with pytest.raises(ContractError):
            min_k_scores(ck, [[1, 2]], 0.0)


class TestPrivleak:
    def setup_method(self):
        self.split = generate_corpus(5, 4, 6, 3)
        self.tok = build_tokenizer(self.split)
        self.cfg = ModelConfig(vocab_size=len(self.tok), d_model=16, n_layers=1,
                               n_heads=2, d_ff=32, context_len=24, seed=0)

    def test_same_model_is_zero(self):
        ck = init_model(self.cfg)
        baseline = membership_aucs(ck, self.split, self.tok, 20.0)
        aucs = membership_aucs(ck, self.split, self.tok, 20.0)
        for key in ("privleak", "privleak_holdout"):
            assert privleak(aucs[key], baseline[key]) == 0.0

    def test_direct_formula(self):
        # AUC_u = 0.6, AUC_r = 0.5 -> +20.0
        assert privleak(0.6, 0.5) == pytest.approx(20.0)

    def test_membership_aucs_oracle(self):
        ck = init_model(self.cfg)
        from qforget.metrics import _membership_scores
        members = _membership_scores(ck, self.split.forget, self.tok, 20.0)
        got = membership_aucs(ck, self.split, self.tok, 20.0)
        assert got == {
            "privleak": auc_roc(members, _membership_scores(ck, self.split.retain,
                                                            self.tok, 20.0)),
            "privleak_holdout": auc_roc(members, _membership_scores(ck, self.split.holdout,
                                                                    self.tok, 20.0)),
        }

    def test_sign_convention(self):
        a = init_model(self.cfg)
        cfg2 = ModelConfig(vocab_size=len(self.tok), d_model=16, n_layers=1,
                           n_heads=2, d_ff=32, context_len=24, seed=1)
        b = init_model(cfg2)
        auc_u = membership_aucs(a, self.split, self.tok, 20.0)["privleak"]
        auc_r = membership_aucs(b, self.split, self.tok, 20.0)["privleak"]
        got = privleak(auc_u, auc_r)
        assert (got < 0) == (auc_u < auc_r)
        assert got == pytest.approx(100.0 * (auc_u - auc_r) / auc_r)

    def test_zero_baseline_is_none(self):
        assert privleak(0.7, 0.0) is None
        assert privleak(0.0, 0.0) is None

    def test_cell_with_zero_baseline_auc(self):
        # a fully separable forget-vs-retain baseline leaves only that ratio
        # undefined; the holdout variant is still a number
        ck = init_model(self.cfg)
        auc_holdout = membership_aucs(ck, self.split, self.tok, 20.0)["privleak_holdout"]
        cell = evaluate_checkpoint(ck, self.split, self.tok,
                                   {"privleak": 0.0, "privleak_holdout": auc_holdout},
                                   MetricProtocol(k_percent=20.0, prefix_len=5))
        assert cell["privleak"] is None
        assert cell["privleak_holdout"] == 0.0


class TestGenerationMetrics:
    def setup_method(self):
        self.split = generate_corpus(7, 4, 6, 2)
        self.tok = build_tokenizer(self.split)
        self.cfg = ModelConfig(vocab_size=len(self.tok), d_model=16, n_layers=1,
                               n_heads=2, d_ff=32, context_len=24, seed=0)

    def test_untrained_model_scores_low(self):
        ck = init_model(self.cfg)
        assert knowmem(ck, self.split.forget, self.tok) < 15.0
        proto = MetricProtocol(k_percent=20.0, prefix_len=4)
        assert vermem(ck, self.split.forget, self.tok, proto) < 15.0

    def test_deterministic(self):
        ck = init_model(self.cfg)
        a = knowmem(ck, self.split.retain, self.tok)
        assert a == knowmem(ck, self.split.retain, self.tok)

    def test_utilitypres_is_knowmem_on_retain(self):
        ck = init_model(self.cfg)
        assert utilitypres(ck, self.split.retain, self.tok) == \
            knowmem(ck, self.split.retain, self.tok)

    def test_memorizing_model_scores_high(self):
        from qforget.pipeline import stream_texts
        from qforget.training import train_lm
        cfg = ModelConfig(vocab_size=len(self.tok), d_model=32, n_layers=1,
                          n_heads=2, d_ff=64, context_len=24, seed=0)
        trained, _ = train_lm(init_model(cfg),
                              stream_texts(self.split.forget, 2)
                              + stream_texts(self.split.retain, 2),
                              self.tok, lr=2e-3, epochs=60, batch_size=8, seed=0)
        proto = MetricProtocol(k_percent=20.0, prefix_len=4)
        assert vermem(trained, self.split.forget, self.tok, proto) >= 90.0
        assert knowmem(trained, self.split.retain, self.tok) >= 60.0

    def test_constant_token_model_scores_zero_vermem(self):
        ck = init_model(self.cfg)
        ck.params["lm_head"] = np.zeros_like(ck.params["lm_head"])
        # argmax is always token 0 (pad), which never appears in sentences
        got = vermem(ck, self.split.forget, self.tok, MetricProtocol(k_percent=20.0, prefix_len=4))
        assert got == 0.0

    def test_vermem_of_a_sentence_that_is_all_prefix_raises(self):
        from qforget.corpus import FactRecord
        ck = init_model(self.cfg)
        short = FactRecord.make(self.split.forget[0].entity,
                                self.split.forget[1].attribute,
                                self.split.forget[2].value.split()[0])
        # short sentence has 6 tokens: no suffix to score
        with pytest.raises(ContractError, match="reference must be nonempty"):
            vermem(ck, [short], self.tok, MetricProtocol(k_percent=20.0, prefix_len=6))

    def test_single_token_comparison_boundary(self):
        # prefix_len = len(sentence) - 1 leaves a one-token comparison
        proto = MetricProtocol(k_percent=20.0, prefix_len=8)
        ck = init_model(self.cfg)
        got = vermem(ck, self.split.forget, self.tok, proto)
        assert 0.0 <= got <= 100.0
