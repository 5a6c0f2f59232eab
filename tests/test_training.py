"""The shared optimisation loop: divergence before any step, the gradient
map, a step's memory bounded by one block's tape or one item's graph, one
step's state held at a time, and pretraining without a graph."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qforget import model, training, unlearn
from qforget.autodiff import Var, mul, scale, vsum
from qforget.checkpoint import ModelConfig
from qforget.corpus import CorpusSplit, build_tokenizer, generate_corpus
from qforget.errors import DivergenceError
from qforget.lora import LoraConfig, target_names
from qforget.model import TRAIN_ROWS, init_model
from qforget.training import optimize, train_lm
from qforget.unlearn import UnlearnConfig, unlearn_run


def quadratic_step(params, losses):
    """accumulate() for losses[t] * sum(w^2) at step t, logging losses[t]."""
    def accumulate(t):
        w = Var(params["w"])
        scale(vsum(mul(w, w)), losses[t]).backward()
        return {"w": w.grad}, {"loss": losses[t]}
    return accumulate


class TestOptimize:
    def test_log_records_each_step(self):
        params = {"w": np.array([1.0, -2.0])}
        log = optimize(params, 0.1, [(0, 0), (0, 1), (1, 2)],
                       quadratic_step(params, [1.0, 0.5, 0.25]),
                       loss_key="loss", diverged="x")
        assert [list(e) for e in log] == [["epoch", "step", "loss", "grad_norm"]] * 3
        assert [(e["epoch"], e["step"], e["loss"]) for e in log] == \
            [(0, 0, 1.0), (0, 1, 0.5), (1, 2, 0.25)]
        assert log[0]["grad_norm"] == pytest.approx(2.0 * math.sqrt(5.0))
        assert not np.array_equal(params["w"], [1.0, -2.0])

    def test_divergence_raises_before_the_optimizer_moves(self, monkeypatch):
        stepped = []
        real = training.Adam.step
        monkeypatch.setattr(training.Adam, "step",
                            lambda opt, grads: stepped.append(1) or real(opt, grads))
        params = {"w": np.array([1.0, -2.0])}
        with pytest.raises(DivergenceError, match="went non-finite") as exc:
            optimize(params, 0.1, [(0, 0), (0, 1), (0, 2)],
                     quadratic_step(params, [1.0, 0.5, math.inf]),
                     loss_key="loss", diverged="went non-finite")
        assert exc.value.step == 2 and exc.value.last_losses == [1.0, 0.5]
        assert stepped == [1, 1]

    def test_previous_step_gradient_is_dropped_before_the_next_step(self):
        params = {"w": np.array([1.0, -2.0])}
        quadratic = quadratic_step(params, [1.0, 0.5, 0.25])
        grads = []

        def accumulate(t):
            assert all(ref() is None for ref in grads), f"step {t - 1}'s gradient is alive"
            step_grads, values = quadratic(t)
            grads.append(weakref.ref(step_grads["w"]))
            return step_grads, values
        optimize(params, 0.1, [(0, 0), (0, 1), (0, 2)], accumulate,
                 loss_key="loss", diverged="x")
        assert len(grads) == 3


class TestPretrainWithoutGraph:
    def test_train_lm_builds_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_lm built an autodiff graph")
        monkeypatch.setattr(Var, "__init__", refuse)
        monkeypatch.setattr(model, "forward_graph", refuse)
        split = generate_corpus(0, 4, 4, 2)
        tok = build_tokenizer(split)
        cfg = ModelConfig(vocab_size=len(tok), d_model=8, n_layers=1, n_heads=2, d_ff=16,
                          context_len=32, seed=0)
        _, log = train_lm(init_model(cfg), [r.sentence for r in split.forget], tok,
                          lr=1e-3, epochs=2, batch_size=3, seed=0)
        assert len(log) == 4


class TestStepMemory:
    """One step's traced peak is that of one unit of work, not the batch's:
    one block of token rows' tape for train_lm, one item's graph for
    unlearn_run.

    The model has the default config's shapes. Every item has the same
    length, so batch 2 and batch 32 hold the same largest item graph, and a
    batch that fills one block and batch 32 the same largest block.
    """

    @classmethod
    def setup_class(cls):
        cls.split = generate_corpus(0, 32, 32, 2)
        cls.tok = build_tokenizer(cls.split)
        cfg = ModelConfig(vocab_size=len(cls.tok), d_model=128, n_layers=2, n_heads=4,
                          d_ff=512, context_len=32, seed=0)
        cls.target = init_model(cfg)
        cls.texts = [r.sentence for r in cls.split.forget]
        assert len({len(cls.tok.frame(t)) for t in cls.texts}) == 1

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_train_lm_step(self):
        def step(b):
            _, log = train_lm(self.target, self.texts[:b], self.tok, lr=1e-3, epochs=1,
                              batch_size=b, seed=0)
            assert len(log) == 1
        one_block = TRAIN_ROWS // len(self.tok.frame(self.texts[0]))
        assert 1 < one_block < 32
        small = self.traced_peak(lambda: step(one_block))
        large = self.traced_peak(lambda: step(32))
        assert large <= 1.1 * small, (small, large)

    @pytest.mark.parametrize("method, mode", [("NPO_KLR", "full_ft"), ("GA_GDR", "lora")])
    def test_unlearn_run_step(self, method, mode):
        lora = LoraConfig(rank=4, alpha=8.0) if mode == "lora" else None

        def step(b):
            split = CorpusSplit(self.split.forget[:b], self.split.retain[:b],
                                self.split.holdout)
            ucfg = UnlearnConfig(method=method, lr=1e-3, epochs=1, lam=1.0, mode=mode,
                                 lora=lora, batch_size=b)
            assert len(unlearn_run(self.target, split, ucfg, self.tok).log) == 1
        small, large = self.traced_peak(lambda: step(2)), self.traced_peak(lambda: step(32))
        assert large <= 1.1 * small, (small, large)

    def test_lora_step_drops_previous_merged_weights_and_gradients(self, monkeypatch):
        # every array a step's merge makes, and every merged-weight gradient
        # that factor_grads receives, must be dead when the next step merges
        alive = []
        real_merge, real_factor_grads = unlearn.merge, unlearn.factor_grads

        def merge(ck, adapters):
            assert all(ref() is None for ref in alive), "a previous step's state is alive"
            merged = real_merge(ck, adapters)
            alive.extend(weakref.ref(merged.params[name]) for name in adapters)
            return merged

        def factor_grads(adapters, grads):
            alive.extend(weakref.ref(grads[name]) for name in adapters)
            return real_factor_grads(adapters, grads)

        monkeypatch.setattr(unlearn, "merge", merge)
        monkeypatch.setattr(unlearn, "factor_grads", factor_grads)
        split = CorpusSplit(self.split.forget[:4], self.split.retain[:4], self.split.holdout)
        ucfg = UnlearnConfig(method="NPO_KLR", lr=1e-3, epochs=2, lam=1.0, mode="lora",
                             lora=LoraConfig(rank=4, alpha=8.0), batch_size=2)
        assert len(unlearn_run(self.target, split, ucfg, self.tok).log) == 4
        assert len(alive) == 4 * 2 * len(target_names(self.target, ucfg.lora))
