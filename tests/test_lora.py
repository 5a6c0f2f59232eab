"""Adapter contracts: zero start, merge equivalence, rank bound, gradients."""

import numpy as np
import pytest

from qforget.autodiff import Var, add, matmul, scale
from qforget.checkpoint import ModelConfig
from qforget.errors import ConfigError
from qforget.lora import (LoraAdapter, LoraConfig, attach, factor_grads, merge,
                          target_names)
from qforget.model import (forward_graph, forward_logits, init_model, make_param_vars,
                           nll_loss)

CFG = ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                  context_len=16, seed=1)
SMALL = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                    context_len=8, seed=3)


def randomized(adapters, seed=3, std=0.1):
    gen = np.random.default_rng(seed)
    for ad in adapters.values():
        ad.B = gen.normal(0, std, ad.B.shape)
        ad.A = ad.A + gen.normal(0, std, ad.A.shape)
    return adapters


class TestAttach:
    def test_fresh_adapters_change_nothing(self):
        ck = init_model(CFG)
        ads = attach(ck, LoraConfig(rank=2, alpha=4.0, seed=5))
        toks = [1, 5, 3, 7, 2]
        assert np.array_equal(forward_logits(ck, toks),
                              forward_logits(ck, toks, ads))

    def test_adapter_counts_per_mode(self):
        ck = init_model(CFG)
        assert len(attach(ck, LoraConfig(rank=2, targets="all_linear"))) == 6 * 2
        assert len(attach(ck, LoraConfig(rank=2, targets="mlp_only"))) == 2 * 2
        assert len(attach(ck, LoraConfig(rank=2, targets="attn_only"))) == 4 * 2

    def test_lm_head_never_targeted(self):
        ck = init_model(CFG)
        for mode in ("all_linear", "mlp_only", "attn_only"):
            assert "lm_head" not in target_names(ck, LoraConfig(rank=2, targets=mode))

    def test_rank_bound(self):
        ck = init_model(CFG)
        with pytest.raises(ConfigError):
            attach(ck, LoraConfig(rank=17, targets="all_linear"))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LoraConfig(rank=0)
        with pytest.raises(ConfigError):
            LoraConfig(rank=2, alpha=0.0)
        with pytest.raises(ConfigError):
            LoraConfig(rank=2, targets="everything")


class TestEffectiveDelta:
    def test_zero_b_gives_zero(self):
        ad = LoraAdapter(A=np.ones((2, 4)), B=np.zeros((3, 2)), rank=2, alpha=4.0)
        assert np.array_equal(ad.effective_delta(), np.zeros((3, 4)))

    def test_hand_product(self):
        ad = LoraAdapter(A=np.array([[3.0, 0.0]]),
                         B=np.array([[1.0], [1.0]]), rank=1, alpha=2.0)
        np.testing.assert_array_equal(ad.effective_delta(), [[6.0, 0.0], [6.0, 0.0]])

    def test_alpha_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(3, 2))
        d1 = LoraAdapter(a, b, 2, 4.0).effective_delta()
        d2 = LoraAdapter(a, b, 2, 8.0).effective_delta()
        np.testing.assert_allclose(d2, 2.0 * d1)

    def test_rank_bound_by_svd(self):
        rng = np.random.default_rng(3)
        for r in (1, 2, 4):
            ad = LoraAdapter(A=rng.normal(size=(r, 12)),
                             B=rng.normal(size=(10, r)), rank=r, alpha=float(r))
            sv = np.linalg.svd(ad.effective_delta(), compute_uv=False)
            assert np.sum(sv > 1e-10) <= r


def reparametrised_logits(ck, ads, tokens):
    """forward_graph logits over leaves in which each targeted weight is
    W + s * B @ A, built from add, scale and matmul rather than merge."""
    pv = make_param_vars(ck)
    for name, ad in ads.items():
        pv[name] = add(pv[name], scale(matmul(Var(ad.B), Var(ad.A)), ad.scaling))
    return forward_graph(pv, ck.config, tokens).value


class TestMerge:
    def test_forward_equivalence_all_modes(self):
        ck = init_model(CFG)
        rng = np.random.default_rng(4)
        toks = list(rng.integers(0, 32, 9))
        for mode in ("all_linear", "mlp_only", "attn_only"):
            ads = randomized(attach(ck, LoraConfig(rank=2, alpha=4.0, targets=mode)))
            diff = np.abs(forward_logits(merge(ck, ads), toks)
                          - reparametrised_logits(ck, ads, toks)).max()
            assert diff < 1e-9, (mode, diff)

    def test_merge_no_adapters_is_identity(self):
        ck = init_model(CFG)
        merged = merge(ck, {})
        for name in ck.params:
            assert np.array_equal(merged.params[name], ck.params[name])

    def test_merge_fresh_adapters_is_identity(self):
        ck = init_model(CFG)
        merged = merge(ck, attach(ck, LoraConfig(rank=2)))
        for name in ck.params:
            assert np.array_equal(merged.params[name], ck.params[name])

    def test_shares_untargeted_arrays_allocates_targeted(self):
        ck = init_model(CFG)
        ads = randomized(attach(ck, LoraConfig(rank=2, targets="mlp_only")))
        merged = merge(ck, ads)
        assert list(merged.params) == list(ck.params)
        for name, arr in merged.params.items():
            assert np.shares_memory(arr, ck.params[name]) == (name not in ads), name
        assert not any(np.shares_memory(merged.params[n], ad.A) or
                       np.shares_memory(merged.params[n], ad.B) for n, ad in ads.items())

    def test_provenance_tag(self):
        ck = init_model(CFG)
        ck.provenance = "unlearn:GA_GDR:lora"
        assert merge(ck, {}).provenance.endswith(":merged")


def merged_nll(ck, ads, batch):
    """(batch NLL over leaves of the merged weights, those leaves)."""
    pv = make_param_vars(merge(ck, ads))
    return nll_loss(pv, ck.config, batch).graph(), pv


def factor_grads_of(ck, ads, batch):
    loss, pv = merged_nll(ck, ads, batch)
    loss.backward()
    return factor_grads(ads, {name: pv[name].grad for name in ads})


class TestAdapterGradients:
    def test_finite_differences_with_frozen_base(self):
        ck = init_model(SMALL)
        ads = randomized(attach(ck, LoraConfig(rank=2, alpha=4.0, seed=9)), std=0.2)
        batch = [[1, 4, 7, 2, 9]]
        name, step = "block0.attn_q", 1e-5

        grads = factor_grads_of(ck, ads, batch)
        for kind in ("A", "B"):
            analytic = grads[f"{name}.{kind}"]
            x = getattr(ads[name], kind)  # perturbed in place, then restored
            numeric = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                orig = x[i]
                x[i] = orig + step
                fp = float(merged_nll(ck, ads, batch)[0].value)
                x[i] = orig - step
                fm = float(merged_nll(ck, ads, batch)[0].value)
                x[i] = orig
                numeric[i] = (fp - fm) / (2.0 * step)
            denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4, kind

    def test_base_receives_zero_gradient_when_only_adapters_train(self):
        # structural freeze: the optimizer in lora mode never sees base
        # parameters, so their bytes cannot change (asserted in unlearn tests);
        # here we check factor_grads hands back one gradient per factor
        ck = init_model(SMALL)
        ads = randomized(attach(ck, LoraConfig(rank=2, alpha=4.0, seed=9)))
        grads = factor_grads_of(ck, ads, [[1, 4, 7, 2]])
        assert list(grads) == [f"{n}.{k}" for n in ads for k in ("A", "B")]
        for key, g in grads.items():
            name, kind = key.rsplit(".", 1)
            assert g.shape == getattr(ads[name], kind).shape, key

    def test_factor_grads_equal_graph_of_reparametrised_weight(self):
        # the graph W + s * B @ A built from add, scale and matmul, with the
        # factors as leaves, gives the same factor gradients bit for bit
        ck = init_model(SMALL)
        ads = randomized(attach(ck, LoraConfig(rank=2, alpha=4.0, seed=9)))
        batch = [[1, 4, 7, 2, 9], [3, 5, 6, 2]]
        pv = make_param_vars(ck)
        leaves = {}
        for name, ad in ads.items():
            a, b = Var(ad.A), Var(ad.B)
            pv[name] = add(pv[name], scale(matmul(b, a), ad.scaling))
            leaves[name + ".A"], leaves[name + ".B"] = a, b
        nll_loss(pv, ck.config, batch).graph().backward()
        grads = factor_grads_of(ck, ads, batch)
        assert list(grads) == list(leaves)
        for key, leaf in leaves.items():
            assert grads[key].tobytes() == leaf.grad.tobytes(), key

