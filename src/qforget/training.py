"""Adam and the one optimisation loop that pretraining, retraining and
unlearning share.

`optimize` runs the steps: each one asks its caller for the gradients of
the trainable arrays on a batch, checks the loss and takes an Adam step.
The loop holds one step's gradients at a time: it drops them before the
next step forms its own. `train_lm` (next-token prediction) forms them
without a graph, through model.nll_grads, which holds one block of token
rows' activations at a time whatever the batch size; `unlearn.unlearn_run`
forms them on autodiff graphs, one item at a time (autodiff.ItemSum.backward).
"""

import math

import numpy as np

from .checkpoint import Checkpoint
from .corpus import Tokenizer, text_batches
from .errors import DivergenceError
from .model import nll_grads


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


def optimize(params: dict, lr: float, steps, accumulate, *, loss_key: str,
             diverged: str) -> list:
    """Adam over `params`, updated in place, one step per (epoch, batch) of
    `steps`; returns the per-step log.

    accumulate(batch) returns (the batch loss's gradients of `params` by
    name, the step's logged values). A step whose values[loss_key] is not
    finite raises DivergenceError(diverged) before the optimizer moves. Once
    a step's update and log entry are done, the loop drops its gradients
    before the next accumulate, so it holds one step's state at a time.
    """
    opt = Adam(params, lr)
    log = []
    for step, (epoch, batch) in enumerate(steps):
        grads, values = accumulate(batch)
        if not math.isfinite(values[loss_key]):
            raise DivergenceError(diverged, step, [e[loss_key] for e in log[-5:]])
        opt.step(grads)
        log.append({"epoch": epoch, "step": step, **values, "grad_norm": grad_norm(grads)})
        del grads
    return log


def train_lm(ck: Checkpoint, texts: list, tok: Tokenizer, lr: float,
             epochs: int, batch_size: int, seed: int) -> tuple:
    """Train a copy of `ck` on next-token prediction over the given texts.

    Returns (trained checkpoint, per-step log). Deterministic in the seed:
    epoch e shuffles with stream (seed, e).
    """
    out = ck.copy()

    def accumulate(batch):
        loss, grads = nll_grads(out.params, out.config, batch)
        return grads, {"loss": loss}

    steps = ((epoch, batch) for epoch in range(epochs)
             for batch in text_batches(texts, tok, batch_size, seed + epoch))
    log = optimize(out.params, lr, steps, accumulate, loss_key="loss",
                   diverged="pretraining loss is not finite")
    return out, log
