"""Objective anchors (GA/NPO/GDR/KLR), gradient checks, and run-loop contracts."""

import math

import numpy as np
import pytest

from qforget.autodiff import Var, grad_check
from qforget.checkpoint import ModelConfig
from qforget.corpus import build_tokenizer, conditional_frame, generate_corpus
from qforget.errors import ConfigError, ContractError, DivergenceError
from qforget.lora import LoraConfig
from qforget.model import init_model, make_param_vars, nll_graph
from qforget.unlearn import (UnlearnConfig, loss_ga, loss_gdr, loss_klr,
                             loss_npo, objective, unlearn_run)

TINY = ModelConfig(vocab_size=11, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                   context_len=8, seed=3)
FB = [[1, 4, 7, 2, 9], [3, 6, 2, 8]]
RB = [[2, 5, 1, 10], [7, 3, 9, 4, 1]]


def generic_model(seed=11, std=0.25):
    ck = init_model(TINY)
    gen = np.random.default_rng(seed)
    for name in ck.params:
        ck.params[name] = ck.params[name] + gen.normal(0, std, ck.params[name].shape)
    return ck


def uniform_model():
    ck = init_model(TINY)
    ck.params["lm_head"] = np.zeros_like(ck.params["lm_head"])
    return ck


class TestConfig:
    def test_plain_methods_require_zero_lam(self):
        with pytest.raises(ConfigError):
            UnlearnConfig(method="GA", lr=1e-4, epochs=1, lam=0.5)
        with pytest.raises(ConfigError):
            UnlearnConfig(method="NPO", lr=1e-4, epochs=1, lam=1.0)

    def test_regularized_methods_require_positive_lam(self):
        with pytest.raises(ConfigError):
            UnlearnConfig(method="GA_GDR", lr=1e-4, epochs=1, lam=0.0)

    def test_lora_presence_matches_mode(self):
        with pytest.raises(ConfigError):
            UnlearnConfig(method="GA", lr=1e-4, epochs=1, mode="lora")
        with pytest.raises(ConfigError):
            UnlearnConfig(method="GA", lr=1e-4, epochs=1, lora=LoraConfig(rank=2))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            UnlearnConfig(method="SCRUB", lr=1e-4, epochs=1)


class TestGA:
    def test_uniform_logits_value(self):
        ck = uniform_model()
        loss = loss_ga(make_param_vars(ck), ck.config, FB)
        np.testing.assert_allclose(float(loss.value), -math.log(11), rtol=1e-12)

    def test_is_negated_nll(self):
        ck = generic_model()
        pv = make_param_vars(ck)
        ga = float(loss_ga(pv, ck.config, FB).value)
        nll = float(nll_graph(make_param_vars(ck), ck.config, FB)[0].value)
        assert ga == -nll

    def test_single_step_increases_forget_ce(self):
        from qforget.training import Adam
        ck = generic_model()
        before = float(nll_graph(make_param_vars(ck), ck.config, FB)[0].value)
        opt = Adam(ck.params, 1e-4)
        pv = make_param_vars(ck)
        loss_ga(pv, ck.config, FB).backward()
        opt.step({n: pv[n].grad for n in ck.params})
        after = float(nll_graph(make_param_vars(ck), ck.config, FB)[0].value)
        assert after > before


class TestNPO:
    def test_value_at_reference(self):
        # theta = theta_ref: ratio 0, loss = (2/beta) ln 2
        ck = generic_model()
        loss = loss_npo(make_param_vars(ck), ck.config, FB, ck, 0.1)
        np.testing.assert_allclose(float(loss.value), 20 * math.log(2), atol=1e-9)

    def test_gradient_direction_matches_ga_at_small_beta(self):
        ck = generic_model()

        def flat_grad(fn):
            pv = make_param_vars(ck)
            fn(pv).backward()
            return np.concatenate([pv[n].grad.ravel() for n in ck.params])

        g_npo = flat_grad(lambda pv: loss_npo(pv, ck.config, [FB[0]], ck, 1e-4))
        g_ga = flat_grad(lambda pv: loss_ga(pv, ck.config, [FB[0]]))
        cos = g_npo @ g_ga / (np.linalg.norm(g_npo) * np.linalg.norm(g_ga))
        assert cos > 0.999

    def test_gradient_vanishes_for_unlearned_samples(self):
        # d/dratio of -(2/b) log sigmoid(-b r) = 2 sigma(b r): compare the
        # bounded penalty's slope at sigma-argument 0 vs -20
        from qforget.autodiff import log_sigmoid, scale

        def slope(ratio, beta):
            z = Var(float(ratio))
            scale(log_sigmoid(scale(z, -beta)), -2.0 / beta).backward()
            return abs(float(z.grad))

        assert slope(-20.0, 1.0) < 1e-6 * slope(0.0, 1.0)
        assert slope(-200.0, 0.1) < 1e-6 * slope(0.0, 0.1)

    def test_stronger_penalty_when_model_retains_probability(self):
        def slope(ratio, beta=0.1):
            from qforget.autodiff import log_sigmoid, scale
            z = Var(float(ratio))
            scale(log_sigmoid(scale(z, -beta)), -2.0 / beta).backward()
            return abs(float(z.grad))

        assert slope(+2.0) > slope(-2.0)

    def test_monotone_in_ratio(self):
        from qforget.autodiff import log_sigmoid, scale
        vals = []
        for r in (-3.0, -1.0, 0.0, 1.0, 3.0):
            v = scale(log_sigmoid(scale(Var(r), -0.1)), -2.0 / 0.1)
            vals.append(float(v.value))
        assert vals == sorted(vals)


class TestRegularizers:
    def test_gdr_equals_nll_bitwise(self):
        ck = generic_model()
        gdr = float(loss_gdr(make_param_vars(ck), ck.config, RB).value)
        nll = float(nll_graph(make_param_vars(ck), ck.config, RB)[0].value)
        assert gdr == nll
        assert gdr >= 0.0

    def test_klr_zero_at_reference(self):
        ck = generic_model()
        loss = loss_klr(make_param_vars(ck), ck.config, RB, ck)
        np.testing.assert_allclose(float(loss.value), 0.0, atol=1e-12)

    def test_klr_nonnegative(self):
        ck, ref = generic_model(1), generic_model(2)
        assert float(loss_klr(make_param_vars(ck), ck.config, RB, ref).value) >= 0.0

    def test_klr_decreases_when_trained_alone(self):
        from qforget.training import Adam
        ck, ref = generic_model(1), generic_model(2)
        start = float(loss_klr(make_param_vars(ck), ck.config, RB, ref).value)
        opt = Adam(ck.params, 1e-3)
        for _ in range(10):
            pv = make_param_vars(ck)
            loss = loss_klr(pv, ck.config, RB, ref)
            loss.backward()
            opt.step({n: pv[n].grad for n in ck.params})
        assert float(loss_klr(make_param_vars(ck), ck.config, RB, ref).value) < start


class TestLossStarts:
    """Every loss scores a pair's continuation rows and rejects a start
    outside them."""

    @pytest.mark.parametrize("start", [-1, 4, 9])
    def test_out_of_range_start_rejected(self, start):
        ck = generic_model()
        batch = [([1, 4, 7, 2, 9], start)]
        for fn in (lambda pv: loss_ga(pv, ck.config, batch),
                   lambda pv: loss_npo(pv, ck.config, batch, ck, 0.1),
                   lambda pv: loss_gdr(pv, ck.config, batch),
                   lambda pv: loss_klr(pv, ck.config, batch, ck)):
            with pytest.raises(ContractError, match="outside prediction rows"):
                fn(make_param_vars(ck))

    def test_empty_batch_rejected(self):
        ck = generic_model()
        for fn in (lambda pv: loss_npo(pv, ck.config, [], ck, 0.1),
                   lambda pv: loss_klr(pv, ck.config, [], ck)):
            with pytest.raises(ContractError, match="empty batch"):
                fn(make_param_vars(ck))

    def test_pair_at_start_zero_is_plain_sequence(self):
        ck, ref = generic_model(1), generic_model(2)
        pairs = [(seq, 0) for seq in FB]
        for fn in (lambda b: loss_npo(make_param_vars(ck), ck.config, b, ref, 0.1),
                   lambda b: loss_klr(make_param_vars(ck), ck.config, b, ref)):
            assert float(fn(pairs).value) == float(fn(FB).value)


class TestTotalLoss:
    def test_lam_zero_is_bare_forgetting_loss(self):
        ck = generic_model()
        ucfg = UnlearnConfig(method="GA", lr=1e-4, epochs=1, lam=0.0)
        total, forget, retain = objective(ucfg, make_param_vars(ck), ck.config, FB, None, ck)
        bare = loss_ga(make_param_vars(ck), ck.config, FB)
        assert float(total.value) == float(bare.value)
        assert total is forget and retain is None

    def test_cancellation_at_uniform_logits(self):
        ck = uniform_model()
        ucfg = UnlearnConfig(method="GA_GDR", lr=1e-4, epochs=1, lam=1.0)
        total, _, _ = objective(ucfg, make_param_vars(ck), ck.config, FB, RB, ck)
        assert float(total.value) == 0.0

    def test_missing_retain_batch(self):
        ck = generic_model()
        ucfg = UnlearnConfig(method="GA_GDR", lr=1e-4, epochs=1, lam=1.0)
        with pytest.raises(ContractError):
            objective(ucfg, make_param_vars(ck), ck.config, FB, None, ck)

    def test_gradient_linearity(self):
        ck = generic_model()
        lam = 2.0

        def flat(fn):
            pv = make_param_vars(ck)
            fn(pv).backward()
            return np.concatenate([pv[n].grad.ravel() for n in ck.params])

        ucfg = UnlearnConfig(method="GA_GDR", lr=1e-4, epochs=1, lam=lam)
        g_total = flat(lambda pv: objective(ucfg, pv, ck.config, FB, RB, ck)[0])
        g_f = flat(lambda pv: loss_ga(pv, ck.config, FB))
        g_r = flat(lambda pv: loss_gdr(pv, ck.config, RB))
        np.testing.assert_allclose(g_total, g_f + lam * g_r, rtol=1e-12, atol=1e-15)


class TestObjectiveGradients:
    """GA, NPO, GDR, KLR against central finite differences (< 1e-4)."""

    def _worst(self, loss_fn, ck):
        worst = 0.0
        for name in ck.params:
            def f(v, name=name):
                pv = {n: (v if n == name else Var(ck.params[n])) for n in ck.params}
                return loss_fn(pv)
            worst = max(worst, grad_check(f, ck.params[name], 1e-5))
        return worst

    def test_all_objectives(self):
        ck = generic_model(11)
        ref = generic_model(9)
        checks = {
            "GA": lambda pv: loss_ga(pv, ck.config, FB),
            "NPO": lambda pv: loss_npo(pv, ck.config, FB, ref, 0.1),
            "GDR": lambda pv: loss_gdr(pv, ck.config, RB),
            "KLR": lambda pv: loss_klr(pv, ck.config, RB, ref),
        }
        for label, fn in checks.items():
            worst = self._worst(fn, ck)
            assert worst < 1e-4, (label, worst)


class TestUnlearnRun:
    def setup_method(self):
        self.split = generate_corpus(5, 4, 8, 2)
        self.tok = build_tokenizer(self.split)
        cfg = ModelConfig(vocab_size=len(self.tok), d_model=16, n_layers=1,
                          n_heads=2, d_ff=32, context_len=24, seed=0)
        self.target = init_model(cfg)

    def test_zero_epochs_returns_target_params(self):
        ucfg = UnlearnConfig(method="GA", lr=1e-4, epochs=0, seed=0)
        res = unlearn_run(self.target, self.split, ucfg, self.tok)
        for name in self.target.params:
            assert np.array_equal(res.checkpoint.params[name], self.target.params[name])

    def test_lora_base_weights_byte_identical(self):
        ucfg = UnlearnConfig(method="GA_GDR", lr=1e-2, epochs=2, lam=1.0,
                             mode="lora", lora=LoraConfig(rank=2, alpha=4.0), seed=0)
        res = unlearn_run(self.target, self.split, ucfg, self.tok)
        for name in self.target.params:
            assert res.checkpoint.params[name].tobytes() == \
                self.target.params[name].tobytes()
        merged = res.merged()
        assert any(not np.array_equal(merged.params[n], self.target.params[n])
                   for n in self.target.params)

    def test_lora_base_change_raises_contract_error(self, monkeypatch):
        # an adapter factor that aliases a base weight lets the optimizer
        # write through to the frozen base; the run must refuse the result
        from qforget import unlearn
        from qforget.lora import attach

        def aliasing_attach(ck, cfg):
            ads = attach(ck, cfg)
            ad = ads["block0.mlp_up"]
            ad.A = ck.params["block0.mlp_up"][:ad.rank]
            return ads

        monkeypatch.setattr(unlearn, "attach", aliasing_attach)
        ucfg = UnlearnConfig(method="GA", lr=1e-2, epochs=2, mode="lora",
                             lora=LoraConfig(rank=2, alpha=4.0), batch_size=2, seed=0)
        with pytest.raises(ContractError, match="block0.mlp_up"):
            unlearn_run(self.target, self.split, ucfg, self.tok)

    def test_deterministic(self):
        ucfg = UnlearnConfig(method="NPO_GDR", lr=1e-3, epochs=2, lam=1.0, seed=4)
        a = unlearn_run(self.target, self.split, ucfg, self.tok)
        b = unlearn_run(self.target, self.split, ucfg, self.tok)
        for name in a.checkpoint.params:
            assert a.checkpoint.params[name].tobytes() == b.checkpoint.params[name].tobytes()

    def test_log_schema(self):
        ucfg = UnlearnConfig(method="GA_KLR", lr=1e-3, epochs=1, lam=1.0, seed=0)
        res = unlearn_run(self.target, self.split, ucfg, self.tok)
        assert res.log
        for entry in res.log:
            assert set(entry) == {"epoch", "step", "loss_forget", "loss_retain",
                                  "total", "grad_norm"}
            assert entry["loss_retain"] is not None

    def test_reference_never_mutated(self):
        snapshot = {n: a.copy() for n, a in self.target.params.items()}
        ucfg = UnlearnConfig(method="GA_GDR", lr=1e-2, epochs=2, lam=1.0, seed=0)
        unlearn_run(self.target, self.split, ucfg, self.tok)
        for name in snapshot:
            assert np.array_equal(self.target.params[name], snapshot[name])

    def test_divergence_raises_with_diagnostics(self):
        # layer norm keeps merely-huge weights finite; the rate has to push
        # the matmuls past float64 range before the loss goes non-finite
        ucfg = UnlearnConfig(method="GA", lr=1e200, epochs=5, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            unlearn_run(self.target, self.split, ucfg, self.tok)
        assert exc.value.step >= 0
        assert all(np.isfinite(v) for v in exc.value.last_losses)

    def test_vocab_mismatch(self):
        other = generate_corpus(6, 4, 100, 2)
        with pytest.raises(ConfigError):
            unlearn_run(self.target, other,
                        UnlearnConfig(method="GA", lr=1e-4, epochs=1), None)

    def test_ga_gdr_regression_forget_up_retain_stable(self):
        """Forget-set CE strictly increases while retain-set CE stays within
        +0.5 of its start, at the desk-scale 'large' rate."""
        from qforget.training import train_lm
        from qforget.pipeline import stream_texts
        trained, _ = train_lm(self.target, stream_texts(self.split.forget, 1)
                              + stream_texts(self.split.retain, 2),
                              self.tok, lr=2e-3, epochs=8, batch_size=8, seed=0)

        def conditional_ce(ck, records):
            pairs = [conditional_frame(r, self.tok) for r in records]
            return float(nll_graph(make_param_vars(ck), ck.config, pairs)[0].value)

        f0 = conditional_ce(trained, self.split.forget)
        r0 = conditional_ce(trained, self.split.retain)
        ucfg = UnlearnConfig(method="GA_GDR", lr=5e-3, epochs=3, lam=1.0,
                             batch_size=4, seed=0)
        res = unlearn_run(trained, self.split, ucfg, self.tok)
        f1 = conditional_ce(res.checkpoint, self.split.forget)
        r1 = conditional_ce(res.checkpoint, self.split.retain)
        assert f1 > f0
        assert r1 < r0 + 0.5
