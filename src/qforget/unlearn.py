"""Unlearning objectives and the run loop that optimizes them.

Six methods: GA and NPO push likelihood off the forget set (GA by ascending
cross-entropy, NPO by a reference-bounded preference loss), optionally
combined with a retain-set regularizer (GDR: plain cross-entropy descent;
KLR: KL toward the frozen reference distribution). The combined objective is
L_forget + lam * L_retain.

A run optimizes either every parameter (full_ft) or only adapter factors
(lora) with the base weights frozen; the frozen reference model is a copy of
the starting checkpoint and is never touched.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Var, add, kl_divergence_rows, log_sigmoid,
                       log_softmax_rows, scale, slice_rows, target_log_probs,
                       vsum)
from .checkpoint import Checkpoint
from .corpus import CorpusSplit, Tokenizer, build_tokenizer, conditional_batches
from .errors import ConfigError, ContractError, DivergenceError
from .lora import LoraConfig, attach, fold, merge
from .model import (forward_graph, forward_logits, make_param_vars, nll_graph,
                    token_log_probs)
from .training import Adam, grad_norm

METHODS = ("GA", "NPO", "GA_GDR", "GA_KLR", "NPO_GDR", "NPO_KLR")
MODES = ("full_ft", "lora")

# Decorrelates the retain-batch shuffle stream from the forget stream.
_RETAIN_SEED_OFFSET = 500000


@dataclass
class UnlearnConfig:
    method: str
    lr: float
    epochs: int
    lam: float = 0.0
    beta: float = 0.1
    mode: str = "full_ft"
    lora: LoraConfig | None = None
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        plain = self.method in ("GA", "NPO")
        if plain and self.lam != 0.0:
            raise ConfigError(f"{self.method} takes no retain term; lam must be 0")
        if not plain and self.lam <= 0.0:
            raise ConfigError(f"{self.method} needs lam > 0")
        if self.beta <= 0.0:
            raise ConfigError("beta must be > 0")
        if (self.lora is not None) != (self.mode == "lora"):
            raise ConfigError("lora config must be present exactly when mode='lora'")
        if self.epochs < 0 or self.lr <= 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0, lr > 0, batch_size >= 1")


@dataclass
class UnlearnResult:
    checkpoint: Checkpoint   # full_ft: updated weights; lora: untouched base
    adapters: dict | None
    log: list = field(default_factory=list)

    def merged(self) -> Checkpoint:
        if self.adapters is None:
            return self.checkpoint
        return merge(self.checkpoint, self.adapters)


# ---------------------------------------------------------------------------
# Objectives (graph-level; callers hold the parameter Vars)
# ---------------------------------------------------------------------------


def split_pairs(batch):
    """Normalize a batch of sequences or (ids, y_start) pairs.

    Returns (sequences, loss starts). Plain sequences score every prediction
    row; pairs score only their continuation rows.
    """
    seqs, starts = [], []
    for item in batch:
        if isinstance(item, tuple):
            seq, start = item
        else:
            seq, start = item, 0
        seqs.append(list(seq))
        starts.append(start)
    return seqs, starts


def loss_ga(pv: dict, cfg, forget_batch) -> Var:
    """Negated NLL on the forget set: minimizing it maximizes cross-entropy."""
    seqs, starts = split_pairs(forget_batch)
    nll, _ = nll_graph(pv, cfg, seqs, starts)
    return scale(nll, -1.0)


def loss_npo(pv: dict, cfg, forget_batch, ref: Checkpoint, beta: float) -> Var:
    """-(2/beta) * mean over sequences of log sigma(-beta * log-likelihood ratio).

    The ratio is the continuation's summed log-prob difference against the
    frozen reference. Penalties fade as a sequence's likelihood drops below
    the reference's, which is what keeps NPO bounded.
    """
    if not forget_batch:
        raise ContractError("npo: empty batch")
    seqs, starts = split_pairs(forget_batch)
    total = None
    for toks, start in zip(seqs, starts):
        m = len(toks) - 1
        logits = forward_graph(pv, cfg, toks)
        lp = vsum(target_log_probs(slice_rows(logits, start, m), toks[start + 1:]))
        ref_lp = float(token_log_probs(ref, toks)[start:].sum())
        ratio = add(lp, Var(-ref_lp))
        term = scale(log_sigmoid(scale(ratio, -beta)), -2.0 / beta)
        total = term if total is None else add(total, term)
    return scale(total, 1.0 / len(seqs))


def loss_gdr(pv: dict, cfg, retain_batch) -> Var:
    """Plain NLL on the retain set (identical to the training loss)."""
    seqs, starts = split_pairs(retain_batch)
    nll, _ = nll_graph(pv, cfg, seqs, starts)
    return nll


def loss_klr(pv: dict, cfg, retain_batch, ref: Checkpoint) -> Var:
    """Mean over retain positions of KL(reference || current)."""
    if not retain_batch:
        raise ContractError("klr: empty batch")
    seqs, starts = split_pairs(retain_batch)
    total = None
    positions = 0
    for toks, start in zip(seqs, starts):
        m = len(toks) - 1
        log_q = log_softmax_rows(slice_rows(forward_graph(pv, cfg, toks), start, m))
        z = forward_logits(ref, toks)[start:m]
        z = z - z.max(axis=1, keepdims=True)
        p_ref = np.exp(z)
        p_ref /= p_ref.sum(axis=1, keepdims=True)
        piece = scale(kl_divergence_rows(p_ref, log_q), float(m - start))
        total = piece if total is None else add(total, piece)
        positions += m - start
    return scale(total, 1.0 / positions)


def objective(ucfg: UnlearnConfig, pv: dict, cfg, forget_batch, retain_batch,
              ref: Checkpoint) -> tuple:
    """(L_forget + lam * L_retain, forget term, retain term or None) for the
    configured method."""
    if ucfg.method.startswith("NPO"):
        forget = loss_npo(pv, cfg, forget_batch, ref, ucfg.beta)
    else:
        forget = loss_ga(pv, cfg, forget_batch)
    if ucfg.lam == 0.0:
        return forget, forget, None
    if retain_batch is None:
        raise ContractError(f"{ucfg.method} with lam > 0 needs a retain batch")
    if ucfg.method.endswith("GDR"):
        retain = loss_gdr(pv, cfg, retain_batch)
    else:
        retain = loss_klr(pv, cfg, retain_batch, ref)
    return add(forget, scale(retain, ucfg.lam)), forget, retain


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


def unlearn_run(f_target: Checkpoint, split: CorpusSplit, ucfg: UnlearnConfig,
                tok: Tokenizer | None = None) -> UnlearnResult:
    """Adam-optimize the configured objective against a frozen reference.

    full_ft updates every parameter of a working copy; lora updates only the
    adapter factors and leaves the base weights byte-identical. Deterministic
    for a fixed config.
    """
    tok = tok if tok is not None else build_tokenizer(split)
    if len(tok) != f_target.config.vocab_size:
        raise ConfigError(
            f"tokenizer vocab {len(tok)} does not match model vocab "
            f"{f_target.config.vocab_size}")
    ref = f_target.copy()
    work = f_target.copy()
    work.provenance = f"unlearn:{ucfg.method}:{ucfg.mode}"
    cfg = work.config

    adapters = None
    if ucfg.mode == "lora":
        adapters = attach(work, ucfg.lora)
        trainable = {}
        for name, ad in adapters.items():
            trainable[name + ".A"] = ad.A
            trainable[name + ".B"] = ad.B
    else:
        trainable = work.params

    opt = Adam(trainable, ucfg.lr)
    log = []
    step = 0
    for epoch in range(ucfg.epochs):
        forget_batches = conditional_batches(split.forget, tok, ucfg.batch_size,
                                             ucfg.seed + epoch)
        retain_cycle = None
        if ucfg.lam > 0.0:
            retain_cycle = itertools.cycle(
                conditional_batches(split.retain, tok, ucfg.batch_size,
                                    ucfg.seed + _RETAIN_SEED_OFFSET + epoch))
        for fb in forget_batches:
            rb = next(retain_cycle) if retain_cycle is not None else None
            pv = leaves = make_param_vars(work)
            if adapters is not None:
                pv, leaves = fold(pv, adapters)
            total, forget, retain = objective(ucfg, pv, cfg, fb, rb, ref)
            value = float(total.value)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"{ucfg.method} loss became non-finite", step,
                    [e["total"] for e in log[-5:]])
            total.backward()
            grads = {name: leaves[name].grad for name in trainable}
            opt.step(grads)
            log.append({
                "epoch": epoch, "step": step,
                "loss_forget": float(forget.value),
                "loss_retain": float(retain.value) if retain is not None else None,
                "total": value, "grad_norm": grad_norm(grads),
            })
            step += 1

    if adapters is not None:  # freeze contract: the base stays byte-identical
        changed = [name for name in work.params
                   if not np.array_equal(work.params[name], ref.params[name])]
        if changed:
            raise ContractError(f"lora run changed frozen base weights: {changed}")
    return UnlearnResult(work, adapters, log)
