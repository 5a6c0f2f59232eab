"""Adam and the plain language-model training loop (pretraining / retraining)."""

import math

import numpy as np

from .checkpoint import Checkpoint
from .corpus import Tokenizer, text_batches
from .errors import DivergenceError
from .model import make_param_vars, nll_graph


class Adam:
    """Adam over a dict of parameter arrays, updated in place.

    beta1=0.9, beta2=0.999, eps=1e-8, no weight decay.
    """

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - 0.9 ** self.t
        b2c = 1.0 - 0.999 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            self.params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)


def grad_norm(grads: dict) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def train_lm(ck: Checkpoint, texts: list, tok: Tokenizer, lr: float,
             epochs: int, batch_size: int, seed: int) -> tuple:
    """Train a copy of `ck` on next-token prediction over the given texts.

    Returns (trained checkpoint, per-step log). Deterministic in the seed:
    epoch e shuffles with stream (seed, e).
    """
    out = ck.copy()
    opt = Adam(out.params, lr)
    log = []
    step = 0
    for epoch in range(epochs):
        for batch in text_batches(texts, tok, batch_size, seed + epoch):
            pv = make_param_vars(out)
            loss, _ = nll_graph(pv, out.config, batch)
            value = float(loss.value)
            if not math.isfinite(value):
                raise DivergenceError("pretraining loss is not finite",
                                      step, [e["loss"] for e in log[-5:]])
            loss.backward()
            grads = {name: pv[name].grad for name in out.params}
            opt.step(grads)
            log.append({"epoch": epoch, "step": step, "loss": value,
                        "grad_norm": grad_norm(grads)})
            step += 1
    return out, log
