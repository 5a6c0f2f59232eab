"""Model shape/causality/decoding contracts and the whole-model gradient check."""

import math

import numpy as np
import pytest

from qforget.autodiff import Var, grad_check
from qforget.checkpoint import ModelConfig, param_schema
from qforget.errors import ConfigError, ContractError, InputError
import qforget.model as model_mod
from qforget.model import (MAX_ROWS, _prefill, continuations, forward_graph,
                           forward_logits, greedy_decode_batch, infer,
                           init_model, make_param_vars, nll_graph,
                           token_log_probs, token_log_probs_batch)

TINY = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                   context_len=8, seed=3)


def small_config(seed=7):
    return ModelConfig(vocab_size=64, d_model=64, n_layers=2, n_heads=2,
                       d_ff=256, context_len=64, seed=seed)


class TestInit:
    def test_parameter_count_closed_form(self):
        cfg = small_config()
        ck = init_model(cfg)
        v, d, ff, ctx, layers = 64, 64, 256, 64, 2
        expected = (
            v * d            # token embeddings
            + ctx * d        # positional embeddings
            + layers * (2 * d + 4 * d * d + 2 * d + 2 * d * ff)
            + 2 * d          # final norm
            + v * d          # lm head
        )
        assert sum(p.size for p in ck.params.values()) == expected

    def test_schema_matches(self):
        ck = init_model(small_config())
        ck.validate()
        assert list(ck.params.keys()) == list(param_schema(ck.config).keys())

    def test_same_seed_identical(self):
        a, b = init_model(small_config()), init_model(small_config())
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        a, b = init_model(small_config(1)), init_model(small_config(2))
        assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=8, d_model=10, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=8, context_len=1)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=0)


class TestForward:
    def test_causality_perturbation(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            ck = init_model(small_config(seed))
            seq = list(rng.integers(0, 64, 10))
            t = int(rng.integers(1, 9))
            before = forward_logits(ck, seq)
            perturbed = list(seq)
            perturbed[t + 1 if t + 1 < len(seq) else t] = int(
                (perturbed[t + 1 if t + 1 < len(seq) else t] + 1) % 64)
            pos = t + 1 if t + 1 < len(seq) else t
            after = forward_logits(ck, perturbed)
            assert np.array_equal(before[:pos], after[:pos])
            assert not np.allclose(before[pos], after[pos])

    def test_input_errors(self):
        ck = init_model(TINY)
        with pytest.raises(InputError):
            forward_logits(ck, [1] * 9)     # too long
        with pytest.raises(InputError):
            forward_logits(ck, [1, 11])     # bad id
        with pytest.raises(InputError):
            forward_logits(ck, [])


def perturbed(cfg, seed=0):
    """An init moved to a generic point, so no logit sits at a symmetric tie."""
    ck = init_model(cfg)
    gen = np.random.default_rng(seed)
    for name in ck.params:
        ck.params[name] = ck.params[name] + gen.normal(0, 0.3, ck.params[name].shape)
    return ck


def assert_close(got, ref):
    """Equal to 1e-12 of the largest |value|: the inference forward computes
    the GELU cube and batched matmuls in a different rounding order."""
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestInfer:
    """The grad-free batched forward against the training graph."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_forward_graph(self, rows):
        ck = perturbed(small_config())
        block = np.random.default_rng(rows).integers(0, 64, (rows, 12))
        got = infer(ck.params, ck.config, block)
        assert got.shape == (rows, 12, 64)
        pv = make_param_vars(ck)
        for row in range(rows):
            assert_close(got[row], forward_graph(pv, ck.config, block[row]).value)

    def test_cache_continues_sequences(self):
        ck = perturbed(small_config())
        block = np.random.default_rng(4).integers(0, 64, (3, 9))
        cache = []
        head = infer(ck.params, ck.config, block[:, :6], cache)
        steps = [infer(ck.params, ck.config, block[:, t:t + 1], cache)[:, 0]
                 for t in range(6, 9)]
        full = infer(ck.params, ck.config, block)
        assert_close(head, full[:, :6])
        assert_close(np.stack(steps, axis=1), full[:, 6:])

    def test_bad_id_in_third_row(self):
        ck = init_model(TINY)
        block = np.array([[1, 2, 3], [4, 5, 6], [7, 11, 8], [1, 1, 1]])
        infer(ck.params, ck.config, np.delete(block, 2, axis=0))
        with pytest.raises(InputError, match="out of range"):
            infer(ck.params, ck.config, block)
        block[2, 1] = -1
        with pytest.raises(InputError, match="out of range"):
            infer(ck.params, ck.config, block)

    def test_cache_bounded_by_context(self):
        ck = init_model(TINY)
        cache = []
        infer(ck.params, ck.config, np.ones((2, 8), dtype=np.int64), cache)
        with pytest.raises(InputError, match="context_len"):
            infer(ck.params, ck.config, np.ones((2, 1), dtype=np.int64), cache)


def reference_decode(ck, prompt, n_new):
    """Greedy decode that reruns the whole sequence through forward_graph."""
    pv = make_param_vars(ck)
    seq = list(prompt)
    for _ in range(n_new):
        seq.append(int(np.argmax(forward_graph(pv, ck.config, seq).value[-1])))
    return seq


class TestBatchedEval:
    """Ragged batches come back in input order and match per-item calls."""

    def test_cached_decode_matches_recompute(self):
        ck = perturbed(small_config(), seed=1)
        gen = np.random.default_rng(2)
        prompts = [list(gen.integers(0, 64, 6)) for _ in range(5)]
        got = greedy_decode_batch(ck, prompts, [7] * 5)
        assert got == [reference_decode(ck, p, 7) for p in prompts]

    def test_ragged_interleaved_order(self):
        ck = perturbed(small_config(), seed=2)
        gen = np.random.default_rng(3)
        # two prompt lengths (and decode lengths) alternating through the list
        prompts = [list(gen.integers(0, 64, 4 + 3 * (i % 2))) for i in range(6)]
        n_new = [3 + (i % 2) for i in range(6)]
        got = greedy_decode_batch(ck, prompts, n_new)
        assert got == [reference_decode(ck, p, n) for p, n in zip(prompts, n_new)]
        seqs = [p + [1, 2] for p in prompts]
        lps = token_log_probs_batch(ck, seqs)
        for seq, lp in zip(seqs, lps):
            assert lp.shape == (len(seq) - 1,)
            assert_close(lp, token_log_probs(ck, seq))

    def test_beyond_row_cap_matches_one_at_a_time(self):
        ck = perturbed(TINY)
        gen = np.random.default_rng(5)
        count = MAX_ROWS // 8 + 7   # 8-token rows: more than one forward's worth
        seqs = [list(gen.integers(0, 11, 8)) for _ in range(count)]
        lps = token_log_probs_batch(ck, seqs)
        for seq, lp in zip(seqs, lps):
            assert_close(lp, token_log_probs(ck, seq))
        prompts = [s[:5] for s in seqs]
        got = greedy_decode_batch(ck, prompts, [3] * count)
        assert got == [greedy_decode_batch(ck, [p], [3])[0] for p in prompts]

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            greedy_decode_batch(init_model(TINY), [[1, 2]], [1, 2])


@pytest.fixture
def infer_calls(monkeypatch):
    """Every model.infer call as (rows, new positions, cached positions)."""
    calls = []
    real = model_mod.infer

    def counting(params, cfg, ids, cache=None):
        past = cache[0][0].shape[2] if cache else 0
        calls.append(np.shape(ids) + (past,))
        return real(params, cfg, ids, cache)

    monkeypatch.setattr(model_mod, "infer", counting)
    return calls


class TestPrefill:
    """A block's shared prefix runs once; results match a plain forward."""

    @pytest.mark.parametrize("shared, calls", [
        (0, [(4, 10, 0)]),
        (5, [(1, 5, 0), (4, 5, 5)]),
        (10, [(1, 9, 0), (4, 1, 9)]),   # identical rows: capped at T-1
    ])
    def test_matches_plain_infer(self, shared, calls, infer_calls):
        ck = perturbed(small_config())
        block = np.random.default_rng(shared).integers(0, 64, (4, 10))
        block[:, :shared] = block[0, :shared]
        if shared < 10:
            block[1:, shared] = (block[0, shared] + 1 + np.arange(3)) % 64
        got = _prefill(ck.params, ck.config, block, None)
        assert infer_calls == calls
        assert_close(got, infer(ck.params, ck.config, block))

    def test_cache_continues_decode(self):
        ck = perturbed(small_config(), seed=3)
        block = np.random.default_rng(6).integers(0, 64, (3, 9))
        block[:, :3] = block[0, :3]
        cache = []
        head = _prefill(ck.params, ck.config, block[:, :6], cache)
        assert [k.shape for k, _ in cache] == [(3, 2, 6, 32)] * 2
        steps = [infer(ck.params, ck.config, block[:, t:t + 1], cache)[:, 0]
                 for t in range(6, 9)]
        full = infer(ck.params, ck.config, block)
        assert_close(head, full[:, :6])
        assert_close(np.stack(steps, axis=1), full[:, 6:])

    def test_qa_style_decode_matches_recompute(self):
        # 9-token prompts sharing their first 4 tokens, as "<bos> what is the"
        ck = perturbed(small_config(), seed=4)
        gen = np.random.default_rng(7)
        head = [1, 5, 9, 13]
        prompts = [head + list(gen.integers(0, 64, 5)) for _ in range(6)]
        got = greedy_decode_batch(ck, prompts, [5] * 6)
        assert got == [reference_decode(ck, p, 5) for p in prompts]

    def test_knowmem_prefill_rows(self, infer_calls):
        from qforget.corpus import build_tokenizer, generate_corpus
        from qforget.metrics import knowmem
        split = generate_corpus(0, 12, 4, 2)
        tok = build_tokenizer(split)
        records, seen = [], set()
        for rec in split.forget:   # distinct attributes: the prompts share 4 tokens
            if rec.attribute not in seen:
                seen.add(rec.attribute)
                records.append(rec)
        prompts = [[tok.bos_id] + tok.encode(r.question) for r in records]
        t, n = len(prompts[0]), len(records)
        assert n >= 3 and {len(p) for p in prompts} == {t}
        assert all(p[:4] == prompts[0][:4] for p in prompts)
        assert len({p[4] for p in prompts}) == n
        ck = init_model(ModelConfig(vocab_size=len(tok), d_model=16, n_layers=1,
                                    n_heads=2, d_ff=32, context_len=24))
        knowmem(ck, records, tok)
        prefill = sum(rows * new for rows, new, past in infer_calls if past < t)
        assert prefill == 4 + n * (t - 4)

    def test_one_row_block_is_one_plain_call(self, infer_calls):
        # unlearn's reference forwards score one sequence at a time
        ck = perturbed(small_config(), seed=5)
        seq = [3, 1, 4, 1, 5, 9, 2, 6]
        lp = token_log_probs(ck, seq)
        assert infer_calls == [(1, 8, 0)]
        z = infer(ck.params, ck.config, [seq])[0, :-1]
        mx = z.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(z - mx).sum(axis=1, keepdims=True))
        assert np.array_equal(lp, z[np.arange(7), seq[1:]] - lse[:, 0])


class TestNll:
    def test_init_loss_near_uniform(self):
        ck = init_model(small_config())
        loss, _ = nll_graph(make_param_vars(ck), ck.config,
                            [[1, 5, 9, 3, 2, 7, 8], [4, 6, 2, 9]])
        loss = float(loss.value)
        assert abs(loss - math.log(64)) < 0.3

    def test_memorization_run(self):
        # 200 steps on 4 fixed sentences drives the loss below 0.1
        from qforget.training import Adam
        ck = init_model(ModelConfig(vocab_size=16, d_model=32, n_layers=1,
                                    n_heads=2, d_ff=64, context_len=12, seed=0))
        batch = [[1, 4, 7, 2, 9, 3], [2, 8, 5, 11, 6, 1],
                 [3, 12, 9, 14, 2, 7], [5, 10, 13, 4, 15, 8]]
        opt = Adam(ck.params, 3e-3)
        loss_val = None
        for _ in range(200):
            pv = {n: Var(a) for n, a in ck.params.items()}
            loss, _ = nll_graph(pv, ck.config, batch)
            loss.backward()
            opt.step({n: pv[n].grad for n in ck.params})
            loss_val = float(loss.value)
        assert loss_val < 0.1

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            nll_graph(make_param_vars(init_model(TINY)), TINY, [])

    def test_ragged_batch_is_position_weighted_mean(self):
        # sequences of different lengths share a batch unpadded; each
        # contributes its own predicted positions and nothing else
        ck = init_model(TINY)
        short, long = [1, 4, 7], [2, 5, 3, 8, 6]

        def nll(batch):
            loss, n = nll_graph(make_param_vars(ck), ck.config, batch)
            return float(loss.value), n

        both, n = nll([short, long])
        (a, na), (b, nb) = nll([short]), nll([long])
        assert (n, na, nb) == (6, 2, 4)
        assert math.isclose(both, (na * a + nb * b) / n, rel_tol=1e-12)

    def test_whole_model_gradient(self):
        # d_model=8, V=11, 1 layer: full NLL against central differences
        ck = init_model(TINY)
        gen = np.random.default_rng(11)
        for name in ck.params:   # generic point, away from init symmetry
            ck.params[name] = ck.params[name] + gen.normal(0, 0.25, ck.params[name].shape)
        batch = [[1, 4, 7, 2, 9], [3, 6, 2, 8]]
        worst = 0.0
        for name in ck.params:
            def f(v, name=name):
                pv = {n: (v if n == name else Var(ck.params[n])) for n in ck.params}
                return nll_graph(pv, ck.config, batch)[0]
            worst = max(worst, grad_check(f, ck.params[name], 1e-5))
        assert worst < 1e-4, worst


class TestContinuations:
    """The one walker every training loss reads its logit rows from."""

    def test_mixed_batch_rows_are_forward_graph_slices(self):
        ck = perturbed(TINY)
        pv = make_param_vars(ck)
        batch = [[1, 4, 7, 2, 9], ([3, 6, 2, 8, 5], 2), ([2, 5, 1], 0), [7, 3]]
        got = continuations(pv, ck.config, batch)
        expected = [([1, 4, 7, 2, 9], 0), ([3, 6, 2, 8, 5], 2), ([2, 5, 1], 0), ([7, 3], 0)]
        assert [(ids, start) for ids, start, _ in got] == expected
        for ids, start, rows in got:
            full = forward_graph(pv, ck.config, ids).value
            assert np.array_equal(rows.value, full[start:len(ids) - 1])

    @pytest.mark.parametrize("batch, match", [
        ([], "empty batch"),
        ([[1, 4], [5]], "at least 2 tokens"),
        ([([1, 4, 7], 2)], "outside prediction rows"),
        ([([1, 4, 7], -1)], "outside prediction rows"),
    ])
    def test_contract_errors(self, batch, match):
        ck = init_model(TINY)
        with pytest.raises(ContractError, match=match):
            continuations(make_param_vars(ck), ck.config, batch)

    def test_pair_start_restricts_nll(self):
        # a pair's loss is the mean over its continuation rows only
        ck = perturbed(TINY)
        seq = [1, 4, 7, 2, 9]
        loss, n = nll_graph(make_param_vars(ck), ck.config, [(seq, 2)])
        lp = token_log_probs(ck, seq)
        assert n == 2
        assert math.isclose(float(loss.value), -float(lp[2:].mean()), rel_tol=1e-12)


class TestDecode:
    def test_zero_new_tokens(self):
        ck = init_model(TINY)
        assert greedy_decode_batch(ck, [[1, 2, 3]], [0]) == [[1, 2, 3]]

    def test_deterministic(self):
        ck = init_model(small_config())
        a, b = greedy_decode_batch(ck, [[1, 2, 3], [1, 2, 3]], [6, 6])
        assert a == b == greedy_decode_batch(ck, [[1, 2, 3]], [6])[0] and len(a) == 9

    def test_ties_break_to_lowest_id(self):
        ck = init_model(TINY)
        ck.params["lm_head"] = np.zeros_like(ck.params["lm_head"])
        assert greedy_decode_batch(ck, [[3]], [4]) == [[3, 0, 0, 0, 0]]

    def test_memorized_continuation(self):
        from qforget.training import Adam
        ck = init_model(ModelConfig(vocab_size=16, d_model=32, n_layers=1,
                                    n_heads=2, d_ff=64, context_len=12, seed=1))
        sentence = [1, 4, 7, 2, 9, 3, 14, 6]
        opt = Adam(ck.params, 3e-3)
        for _ in range(150):
            pv = {n: Var(a) for n, a in ck.params.items()}
            loss, _ = nll_graph(pv, ck.config, [sentence])
            loss.backward()
            opt.step({n: pv[n].grad for n in ck.params})
        half = len(sentence) // 2
        assert greedy_decode_batch(ck, [sentence[:half]], [len(sentence) - half]) == [sentence]

    def test_length_overflow(self):
        ck = init_model(TINY)
        with pytest.raises(InputError):
            greedy_decode_batch(ck, [[1, 2]], [7])
        with pytest.raises(InputError):
            greedy_decode_batch(ck, [[]], [2])


class TestTokenLogProbs:
    def test_matches_forward_softmax(self):
        ck = init_model(TINY)
        seq = [1, 4, 7, 2]
        lp = token_log_probs(ck, seq)
        logits = forward_logits(ck, seq)
        for t in range(3):
            z = logits[t]
            ref = z[seq[t + 1]] - (z.max() + np.log(np.exp(z - z.max()).sum()))
            np.testing.assert_allclose(lp[t], ref, rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(ContractError):
            token_log_probs(init_model(TINY), [1])
